(* Deterministic chaos soak for the sharded serving layer.

   One seed drives everything: the workload stream, every fault site's
   splitmix64 stream, and therefore the crash / poison / queue-fault
   schedule and the supervisor's recovery sequence.  The engine runs
   seeded YCSB-style churn against a supervised {!Ei_shard.Serve}
   fleet under a fault plan, tracks every *acknowledged* write in a
   shadow model, and at the end reconciles the fleet against the
   shadow and deep-validates every shard with {!Ei_check}.

   Determinism protocol.  Reproducibility requires every fault site's
   draw sequence to be a pure function of the seed:

   - a single client domain issues one batch round at a time, so each
     shard domain sees a deterministic operation sequence (queue sites
     draw on the client; crash / poison / op / slash sites draw on the
     shard domain or, during a rebuild, on the supervisor — and those
     two are serialised by the domain's death and the re-spawn);
   - every batch is submitted with [barrier:true]: {!Ei_shard.Serve}
     then waits — per sub-batch, bounded by the deadline — for the
     target shard to be re-admitted before submitting, so no draw ever
     depends on whether a submission raced a recovery (in particular a
     scan continuation landing on a shard that crashed earlier in the
     same batch is queued after its rebuild, not answered degraded);
   - after any round containing a timed-out operation the client
     additionally spins until {!Ei_shard.Serve.healthy} — a crash
     parks its failure before acknowledging the batch, so this cannot
     miss a recovery in flight — keeping whole rounds aligned with
     recoveries;
   - the coordinator domain is not used; rebalances are client-driven
     at fixed round numbers ({!Ei_shard.Serve.rebalance_with});
   - retries ([inject:false] pushes, rebuild re-inserts) never re-draw
     a fault stream out of schedule.

   Acknowledged-write semantics: only [Applied] outcomes update the
   shadow; a timed-out write leaves its key *unsettled* (the operation
   may or may not have been applied) until a later acknowledged write
   settles it.  Reconciliation demands exact agreement on every
   settled key — a lost acknowledged write or a phantom row fails the
   soak — and merely counts the unsettled ones.

   The row table is deliberately under-sized: client appends grow it
   mid-run while supervised shard domains mark row liveness, which the
   growth-stable chunked liveness store ({!Ei_storage.Table}) makes
   safe — the soak exercises exactly that race. *)

module Fault = Ei_fault.Fault
module Table = Ei_storage.Table
module Index_ops = Ei_harness.Index_ops
module Registry = Ei_harness.Registry
module Serve = Ei_shard.Serve
module Shard = Ei_shard.Shard
module Fleet = Ei_shard.Fleet
module Check = Ei_check.Check
module Rng = Ei_util.Rng
module Strtbl = Ei_util.Strtbl
module Key = Ei_util.Key
module Wal = Ei_wal.Wal

type config = {
  seed : int;
  scale : float;  (* 1.0 = full soak; CI smoke uses ~0.05 *)
  shards : int;
  key_len : int;
  plan : (string * float) list;
  timeout_s : float;  (* exec deadline; bounds the cost of a dropped sub *)
  rebalance_every : int;  (* rounds between client-driven rebalances; 0 = off *)
  progress : (string -> unit) option;
  wal_dir : string option;  (* durable shards; the dir is reset on entry *)
  kill_at : int;  (* round at which the soak SIGKILLs itself; 0 = never *)
}

(* Every fault kind the serving layer exposes, at probabilities tuned
   so a full-scale run sees a handful of recoveries per shard while
   the smoke scale still crosses the fault paths. *)
let default_plan =
  [
    ("serve.crash", 0.0015);
    ("serve.poison", 0.0008);
    ("serve.queue.*.drop", 0.0008);
    ("serve.queue.*.delay", 0.002);
    ("serve.queue.*.refuse", 0.003);
    ("serve.op", 0.002);
    ("elastic.slash", 0.005);
  ]

(* The durable-shard plan adds the WAL crash sites: torn last frame and
   dropped page cache draw once per group commit (so at full scale each
   fires a few times across the fleet), checkpoint corruption draws
   only when a checkpoint is cut, hence the much higher probability. *)
let default_wal_plan =
  default_plan
  @ [
      ("serve.wal.torn", 0.002);
      ("serve.wal.fsync", 0.002);
      ("serve.wal.ckpt", 0.1);
    ]

let default_config ~seed =
  {
    seed;
    scale = 1.0;
    shards = 4;
    key_len = 8;
    plan = default_plan;
    timeout_s = 0.5;
    rebalance_every = 25;
    progress = None;
    wal_dir = None;
    kill_at = 0;
  }

(* Soak-tuned WAL config: fsync every commit (the ack ⇒ durable
   contract under test), checkpoints and rotations frequent enough
   that a soak crosses them many times. *)
let wal_config ~dir =
  {
    (Wal.default_config ~dir) with
    Wal.fsync_every = 1;
    checkpoint_every = 64;
    segment_bytes = 256 * 1024;
  }

type report = {
  rounds : int;
  ops : int;
  applied : int;
  rejected : int;
  timed_out : int;
  barriers : int;  (* post-anomaly waits for fleet health *)
  recoveries : int;
  recovery_log : (int * string * int) list;
  lost : int;  (* settled-present keys missing or with the wrong tid *)
  phantoms : int;  (* settled-absent keys still present *)
  unsettled : int;  (* keys left ambiguous by timed-out writes *)
  find_mismatches : int;  (* online read inconsistencies during churn *)
  check_errors : int;  (* Ei_check Error findings across all shards *)
  fault_stats : (string * int * int) list;
  wal : bool;  (* the soak ran with durable shards *)
  (* Restart check (WAL soaks only): each shard recovered from disk
     into a fresh part after the soak, compared against the live one. *)
  fp_mismatches : int;  (* recovered fingerprint <> live fingerprint *)
  restart_lost : int;  (* settled-present keys missing after recovery *)
  restart_phantoms : int;
  restart_replayed : int;
  restart_fallbacks : int;  (* corrupt checkpoints skipped *)
  restart_torn : int;  (* torn tails truncated *)
  restart_check_errors : int;  (* Ei_check errors on recovered parts *)
}

let ok r =
  r.lost = 0 && r.phantoms = 0 && r.find_mismatches = 0 && r.check_errors = 0
  && r.fp_mismatches = 0 && r.restart_lost = 0 && r.restart_phantoms = 0
  && r.restart_check_errors = 0

(* Shadow state of one key, from acknowledged outcomes only. *)
type entry = Present of int | Absent | Unsettled

(* --- Acknowledgement journal ------------------------------------------ *)

(* A WAL soak mirrors its shadow model into an fsynced append-only
   journal under the WAL root, so a *fresh process* can verify a
   crashed soak: [verify] recovers the shards from disk and reconciles
   them against the journal — zero lost acknowledged writes, zero
   phantoms — with no memory of the run that died.

   Per round, two fsynced blocks bracket the batch:

     S <round>          round start
     T <hexkey> ...     every key a write op of this round touches
     --- fsync; the batch runs; then ---
     P <hexkey> <tid>   acked insert/update: settled present
     A <hexkey>         acked remove: settled absent
     K <hexkey>         acked no-op or rejected: prior state stands
     U <hexkey>         timed out: unsettled
     R <round>          round complete; fsync

   The intent block is durable *before* any op of the round is
   submitted, so however the process dies, every key whose outcome the
   journal missed is listed in an incomplete round and is treated as
   unsettled — the journal never claims more than was acknowledged,
   and never misses an acknowledged write that a later crash could
   surface as lost. *)

let key_of_hex s =
  let n = String.length s / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

type journal = { jfd : Unix.file_descr; jbuf : Buffer.t }

let journal_path dir = Filename.concat dir "shadow.journal"

let jopen dir =
  {
    jfd =
      Unix.openfile (journal_path dir)
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
        0o644;
    jbuf = Buffer.create 4096;
  }

let jline j fmt = Printf.ksprintf (fun s -> Buffer.add_string j.jbuf s; Buffer.add_char j.jbuf '\n') fmt

let jflush j =
  let s = Buffer.contents j.jbuf in
  Buffer.clear j.jbuf;
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring j.jfd s !off (n - !off)
  done;
  Unix.fsync j.jfd

let jclose j = try Unix.close j.jfd with Unix.Unix_error _ -> ()

(* Rebuild the shadow from the journal.  Only complete lines count (a
   torn last line is unacked tail); keys of an incomplete trailing
   round with no outcome line are unsettled. *)
let read_journal path =
  let shadow : entry Strtbl.t = Strtbl.create 4096 in
  let pending : unit Strtbl.t = Strtbl.create 64 in
  (if Sys.file_exists path then
     let ic = open_in_bin path in
     let len = in_channel_length ic in
     let data = really_input_string ic len in
     close_in ic;
     let lines = String.split_on_char '\n' data in
     (* the writer terminates every line: a non-empty final element is
        a torn tail, and [split_on_char] puts it (or "") last *)
     let rec complete = function
       | [] | [ _ ] -> []
       | l :: rest -> l :: complete rest
     in
     List.iter
       (fun line ->
         match String.split_on_char ' ' line with
         | [ "S"; _ ] -> ()
         | [ "T"; h ] -> Strtbl.replace pending (key_of_hex h) ()
         | [ "P"; h; tid ] ->
           let k = key_of_hex h in
           Strtbl.remove pending k;
           Strtbl.replace shadow k (Present (int_of_string tid))
         | [ "A"; h ] ->
           let k = key_of_hex h in
           Strtbl.remove pending k;
           Strtbl.replace shadow k Absent
         | [ "K"; h ] -> Strtbl.remove pending (key_of_hex h)
         | [ "U"; h ] ->
           let k = key_of_hex h in
           Strtbl.remove pending k;
           Strtbl.replace shadow k Unsettled
         | [ "R"; _ ] -> Strtbl.clear pending
         | _ -> ())
       (complete lines));
  Strtbl.iter (fun k () -> Strtbl.replace shadow k Unsettled) pending;
  shadow

let run cfg =
  Fault.configure ~seed:cfg.seed cfg.plan;
  let scaled x =
    let v = int_of_float (float_of_int x *. cfg.scale) in
    if v < 1 then 1 else v
  in
  let nkeys = scaled 6_000 in
  let rounds = scaled 400 in
  let batch_sz = 64 in
  let global_bound = scaled 400_000 in
  let say fmt =
    Printf.ksprintf
      (fun s -> match cfg.progress with Some f -> f s | None -> ())
      fmt
  in
  let mk_part ~load i =
    let ecfg =
      Ei_core.Elasticity.default_config ~size_bound:(max 1 (global_bound / cfg.shards))
    in
    let ecfg =
      {
        ecfg with
        Ei_core.Elasticity.fault_site = Printf.sprintf "elastic.slash.shard%d" i;
      }
    in
    let ix =
      Registry.make
        ~name:(Printf.sprintf "chaos-shard%d" i)
        ~key_len:cfg.key_len ~load (Registry.Elastic ecfg)
    in
    Index_ops.inject ~site:(Fault.site (Printf.sprintf "serve.op.shard%d" i)) ix
  in
  (* Durable mode: reset the WAL root (a soak owns its directory), open
     the acknowledgement journal beside the shard logs, and hand every
     shard a writer.  The start-time recovery below is a no-op on the
     fresh directory. *)
  let wal =
    Option.map
      (fun dir ->
        Wal.reset_dir dir;
        wal_config ~dir)
      cfg.wal_dir
  in
  let journal = Option.map jopen cfg.wal_dir in
  let fleet =
    Fleet.start
      {
        Fleet.default with
        shards = cfg.shards;
        key_len = cfg.key_len;
        (* Under-sized on purpose: appends grow the table mid-run while
           shard domains mark liveness (see above). *)
        table_capacity = max 64 (nkeys / 4);
        part = Custom mk_part;
        supervisor = true;
        wal;
        fault_prefix = Some "serve";
        timeout_s = Some cfg.timeout_s;
      }
  in
  let table = fleet.Fleet.table and router = fleet.Fleet.router in
  let serve = fleet.Fleet.serve in
  let coord = Serve.default_coordinator ~global_bound in
  let rng = Rng.stream cfg.seed 0x1 in
  let pool = Array.init nkeys (fun _ -> Key.random rng cfg.key_len) in
  let shadow : entry Strtbl.t = Strtbl.create (2 * nkeys) in
  let applied = ref 0
  and rejected = ref 0
  and timed_out = ref 0
  and barriers = ref 0
  and find_mismatches = ref 0 in
  let barrier_pending = ref false in
  for round = 1 to rounds do
    if !barrier_pending then begin
      incr barriers;
      while not (Serve.healthy serve) do
        Unix.sleepf 0.0005
      done;
      barrier_pending := false
    end;
    let ops =
      Array.init batch_sz (fun _ ->
          let k = pool.(Rng.int rng nkeys) in
          let c = Rng.int rng 100 in
          if c < 40 then Serve.Insert (k, Table.append table k)
          else if c < 55 then Serve.Remove k
          else if c < 65 then Serve.Update (k, Table.append table k)
          else if c < 90 then Serve.Find k
          else Serve.Scan (k, 16))
    in
    (* Intent block: durable before any op of the round is submitted,
       so a kill mid-batch leaves every touched key listed for [verify]
       to treat as unsettled. *)
    (match journal with
    | Some j ->
      jline j "S %d" round;
      Array.iter
        (function
          | Serve.Insert (k, _) | Serve.Remove k | Serve.Update (k, _) ->
            jline j "T %s" (Key.to_hex k)
          | Serve.Find _ | Serve.Scan _ -> ())
        ops;
      jflush j
    | None -> ());
    (* The crash under test: SIGKILL from a side domain lands while the
       shard domains are mid-batch — framing, fsyncing, checkpointing.
       Nothing below this round runs; a fresh process must [verify]. *)
    if round = cfg.kill_at then
      ignore
        (Domain.spawn (fun () ->
             Unix.sleepf 0.003;
             Unix.kill (Unix.getpid ()) Sys.sigkill));
    let outs = Serve.exec ~barrier:true serve ops in
    Array.iteri
      (fun i out ->
        match (ops.(i), out) with
        | Serve.Insert (k, tid), Serve.Applied 1 ->
          incr applied;
          Strtbl.replace shadow k (Present tid)
        | Serve.Remove k, Serve.Applied 1 ->
          incr applied;
          Strtbl.replace shadow k Absent
        | Serve.Update (k, tid), Serve.Applied 1 ->
          incr applied;
          Strtbl.replace shadow k (Present tid)
        | Serve.Find k, Serve.Applied r -> (
          incr applied;
          (* Single client + per-shard FIFO: an acknowledged read must
             agree with the shadow whenever the key is settled. *)
          match Strtbl.find_opt shadow k with
          | Some (Present tid) -> if r <> tid then incr find_mismatches
          | Some Absent | None -> if r >= 0 then incr find_mismatches
          | Some Unsettled -> ())
        | (Serve.Insert _ | Serve.Remove _ | Serve.Update _ | Serve.Scan _), Serve.Applied _
          ->
          incr applied
        | _, Serve.Rejected -> incr rejected
        | (Serve.Insert (k, _) | Serve.Remove k | Serve.Update (k, _)), Serve.Timed_out
          ->
          incr timed_out;
          Strtbl.replace shadow k Unsettled;
          barrier_pending := true
        | (Serve.Find _ | Serve.Scan _), Serve.Timed_out ->
          incr timed_out;
          barrier_pending := true)
      outs;
    (* Outcome block: the journal settles exactly the keys the shadow
       settled, then marks the round complete. *)
    (match journal with
    | Some j ->
      Array.iteri
        (fun i out ->
          match (ops.(i), out) with
          | (Serve.Insert (k, tid) | Serve.Update (k, tid)), Serve.Applied 1
            ->
            jline j "P %s %d" (Key.to_hex k) tid
          | Serve.Remove k, Serve.Applied 1 -> jline j "A %s" (Key.to_hex k)
          | ( (Serve.Insert (k, _) | Serve.Remove k | Serve.Update (k, _)),
              (Serve.Applied _ | Serve.Rejected) ) ->
            jline j "K %s" (Key.to_hex k)
          | ( (Serve.Insert (k, _) | Serve.Remove k | Serve.Update (k, _)),
              Serve.Timed_out ) ->
            jline j "U %s" (Key.to_hex k)
          | (Serve.Find _ | Serve.Scan _), _ -> ())
        outs;
      jline j "R %d" round;
      jflush j
    | None -> ());
    if cfg.rebalance_every > 0 && round mod cfg.rebalance_every = 0 then
      Serve.rebalance_with serve coord;
    if round mod 100 = 0 then
      say "round %d/%d: %d applied, %d rejected, %d timed out, %d recoveries"
        round rounds !applied !rejected !timed_out (Serve.recoveries serve)
  done;
  (* Quiesce: let any final recovery land, freeze the fault schedule
     digest, then disarm every site so reconciliation reads draw
     nothing. *)
  while not (Serve.healthy serve) do
    Unix.sleepf 0.0005
  done;
  let fault_stats = Fault.stats () in
  Fault.clear ();
  let lost = ref 0 and phantoms = ref 0 and unsettled = ref 0 in
  (* One linear pass in 512-key windows over an array snapshot of the
     shadow (a list-chunking reconcile would re-traverse the tail per
     chunk, quadratic at full scale). *)
  let entries =
    Array.of_list (Strtbl.fold (fun k e acc -> (k, e) :: acc) shadow [])
  in
  let chunk = 512 in
  let base = ref 0 in
  while !base < Array.length entries do
    let len = min chunk (Array.length entries - !base) in
    let window = Array.sub entries !base len in
    let outs =
      Serve.exec serve (Array.map (fun (k, _) -> Serve.Find k) window)
    in
    Array.iteri
      (fun i (_, e) ->
        match (e, outs.(i)) with
        | Unsettled, _ -> incr unsettled
        | Present tid, Serve.Applied r -> if r <> tid then incr lost
        | Present _, (Serve.Rejected | Serve.Timed_out) -> incr lost
        | Absent, Serve.Applied r -> if r >= 0 then incr phantoms
        | Absent, (Serve.Rejected | Serve.Timed_out) -> incr phantoms)
      window;
    base := !base + len
  done;
  Serve.stop serve;
  Option.iter jclose journal;
  let check_errors =
    Array.fold_left
      (fun acc part -> acc + List.length (Check.errors (Check.run part)))
      0 (Shard.parts router)
  in
  (* Restart check (WAL soaks): recover every shard from disk into a
     fresh part — the exact path a fresh process would take — and hold
     it against the live fleet: content fingerprints must match
     per shard, every settled key must reconcile, and the recovered
     parts must be {!Ei_check}-clean.  The live part equals the durable
     state by construction (an unacknowledged batch that died before
     its commit was already discarded by the supervisor's own
     rebuild-from-disk), so any difference here is a recovery bug. *)
  let fp_mismatches = ref 0
  and restart_lost = ref 0
  and restart_phantoms = ref 0
  and restart_replayed = ref 0
  and restart_fallbacks = ref 0
  and restart_torn = ref 0
  and restart_check_errors = ref 0 in
  (match wal with
  | None -> ()
  | Some wcfg ->
    let live = Shard.parts router in
    let rec_parts =
      Array.init cfg.shards (fun i ->
          let part = fleet.Fleet.part i in
          let w, r =
            Wal.recover wcfg ~shard:i ~part
              ~restore:(fun ~tid ~key -> Table.restore_row table ~tid ~key)
          in
          Wal.close w;
          restart_replayed := !restart_replayed + r.Wal.r_replayed;
          restart_fallbacks := !restart_fallbacks + r.Wal.r_ckpt_fallbacks;
          restart_torn := !restart_torn + r.Wal.r_torn;
          if
            Index_ops.fingerprint part <> Index_ops.fingerprint live.(i)
          then incr fp_mismatches;
          restart_check_errors :=
            !restart_check_errors + List.length (Check.errors (Check.run part));
          part)
    in
    Strtbl.iter
      (fun k e ->
        let part = rec_parts.(Shard.shard_of_key router k) in
        match e with
        | Unsettled -> ()
        | Present tid -> (
          match part.Index_ops.find k with
          | Some t when t = tid -> ()
          | Some _ | None -> incr restart_lost)
        | Absent -> (
          match part.Index_ops.find k with
          | Some _ -> incr restart_phantoms
          | None -> ()))
      shadow);
  let report =
    {
      rounds;
      ops = rounds * batch_sz;
      applied = !applied;
      rejected = !rejected;
      timed_out = !timed_out;
      barriers = !barriers;
      recoveries = Serve.recoveries serve;
      recovery_log = Serve.recovery_log serve;
      lost = !lost;
      phantoms = !phantoms;
      unsettled = !unsettled;
      find_mismatches = !find_mismatches;
      check_errors;
      fault_stats;
      wal = wal <> None;
      fp_mismatches = !fp_mismatches;
      restart_lost = !restart_lost;
      restart_phantoms = !restart_phantoms;
      restart_replayed = !restart_replayed;
      restart_fallbacks = !restart_fallbacks;
      restart_torn = !restart_torn;
      restart_check_errors = !restart_check_errors;
    }
  in
  say "done: %d ops, %d applied, %d recoveries, lost %d, phantoms %d, %d check errors"
    report.ops report.applied report.recoveries report.lost report.phantoms
    report.check_errors;
  report

let pp_report fmt r =
  Format.fprintf fmt
    "chaos soak: %d rounds / %d ops%s@\n\
    \  applied %d, rejected %d, timed out %d, barriers %d@\n\
    \  recoveries %d, unsettled keys %d@\n\
    \  lost acknowledged writes %d, phantoms %d, find mismatches %d, check errors %d@\n"
    r.rounds r.ops
    (if r.wal then " (durable shards)" else "")
    r.applied r.rejected r.timed_out r.barriers r.recoveries r.unsettled
    r.lost r.phantoms r.find_mismatches r.check_errors;
  if r.wal then
    Format.fprintf fmt
      "  restart: %d replayed, %d ckpt fallbacks, %d torn tails; lost %d, \
       phantoms %d, fp mismatches %d, check errors %d@\n"
      r.restart_replayed r.restart_fallbacks r.restart_torn r.restart_lost
      r.restart_phantoms r.fp_mismatches r.restart_check_errors;
  List.iter
    (fun (shard, cause, rows) ->
      Format.fprintf fmt "  recovery: shard %d (%s), %d rows rebuilt@\n" shard
        cause rows)
    r.recovery_log;
  List.iter
    (fun (site, calls, fired) ->
      if fired > 0 then
        Format.fprintf fmt "  fault %s: %d/%d fired@\n" site fired calls)
    r.fault_stats

(* The digest two equal-seed runs must agree on exactly: the fault
   schedule and, per shard, the recovery sequence.  Recoveries are
   stable-sorted by shard first: each shard's own sequence is
   schedule-pure, but when two shards fail in the same round the
   supervisor may reach them in either order across runs (its polling
   is wall-clock), so the cross-shard interleaving is not part of the
   reproducibility claim.

   Durable soaks narrow the claim further.  The WAL crash sites draw
   once per *group commit*, and batch boundaries are wall-clock (how
   many sub-batches a domain drains per wakeup varies run to run), so
   their draw counts — and everything downstream of a WAL-fault
   recovery: the replay's retry draws on the op and slash sites, the
   rebuilt-rows counts, the WAL-caused recovery entries — are not pure
   functions of the seed.  The digest therefore keeps only the
   schedule-pure families (crash / poison / queue, whose draws are
   per-operation or per-submission on a deterministic sequence) and
   the recovery entries they cause, by shard and cause with the
   timing-dependent row counts dropped.  The durability claims
   themselves (zero lost acks, fingerprint-equal restart) are checked
   directly by the report, not by replay equality. *)
let schedule_digest r =
  let pure_site s =
    (not r.wal)
    || String.starts_with ~prefix:"serve.crash" s
    || String.starts_with ~prefix:"serve.poison" s
    || String.starts_with ~prefix:"serve.queue" s
  in
  let wal_caused cause =
    (* [Wal.Died] recoveries are group-commit-timed, not seed-pure *)
    let sub = "Wal.Died" in
    let n = String.length cause and m = String.length sub in
    let rec has i = i + m <= n && (String.sub cause i m = sub || has (i + 1)) in
    r.wal && has 0
  in
  let b = Buffer.create 256 in
  List.iter
    (fun (site, calls, fired) ->
      if pure_site site then
        Buffer.add_string b (Printf.sprintf "%s:%d:%d;" site calls fired))
    r.fault_stats;
  List.iter
    (fun (shard, cause, rows) ->
      if not (wal_caused cause) then
        if r.wal then Buffer.add_string b (Printf.sprintf "R%d:%s;" shard cause)
        else Buffer.add_string b (Printf.sprintf "R%d:%s:%d;" shard cause rows))
    (List.stable_sort
       (fun (a, _, _) (b, _, _) -> Int.compare a b)
       r.recovery_log);
  Buffer.contents b

(* --- Fresh-process crash verification --------------------------------- *)

type verify_report = {
  v_shards : int;
  v_settled : int;  (* journal keys reconciled (present + absent) *)
  v_unsettled : int;  (* journal keys skipped as ambiguous *)
  v_lost : int;  (* settled-present keys missing or wrong after recovery *)
  v_phantoms : int;  (* settled-absent keys present after recovery *)
  v_ckpt_entries : int;
  v_replayed : int;
  v_fallbacks : int;  (* corrupt checkpoints skipped *)
  v_torn : int;  (* torn tails truncated *)
  v_clean : int;  (* shards whose clean-shutdown marker was present *)
  v_check_errors : int;  (* Ei_check errors across recovered shards *)
}

let verify_ok v = v.v_lost = 0 && v.v_phantoms = 0 && v.v_check_errors = 0

(* Recover a killed soak's fleet in a process with no memory of it:
   rebuild each shard from its WAL (checkpoint + replay), rebuild the
   acknowledged-write shadow from the fsynced journal, and reconcile.
   No fault plan may be configured — verification must draw nothing. *)
let verify ?(shards = 4) ?(key_len = 8) ~dir () =
  let shadow = read_journal (journal_path dir) in
  let table = Table.create ~key_len () in
  let mk_part i =
    Registry.make
      ~name:(Printf.sprintf "verify-shard%d" i)
      ~key_len ~load:(Table.loader table)
      (Registry.Elastic
         (Ei_core.Elasticity.default_config ~size_bound:max_int))
  in
  let parts = Array.init shards mk_part in
  let map = Ei_shard.Shard_map.create ~key_len ~shards in
  let ckpt_entries = ref 0
  and replayed = ref 0
  and fallbacks = ref 0
  and torn = ref 0
  and clean = ref 0
  and check_errors = ref 0 in
  Array.iteri
    (fun i part ->
      let w, r =
        Wal.recover (wal_config ~dir) ~shard:i ~part
          ~restore:(fun ~tid ~key -> Table.restore_row table ~tid ~key)
      in
      Wal.close w;
      ckpt_entries := !ckpt_entries + r.Wal.r_ckpt_entries;
      replayed := !replayed + r.Wal.r_replayed;
      fallbacks := !fallbacks + r.Wal.r_ckpt_fallbacks;
      torn := !torn + r.Wal.r_torn;
      if r.Wal.r_clean then incr clean;
      check_errors :=
        !check_errors + List.length (Check.errors (Check.run part)))
    parts;
  let settled = ref 0
  and unsettled = ref 0
  and lost = ref 0
  and phantoms = ref 0 in
  Strtbl.iter
    (fun k e ->
      let part = parts.(Ei_shard.Shard_map.shard_of_key map k) in
      match e with
      | Unsettled -> incr unsettled
      | Present tid -> (
        incr settled;
        match part.Index_ops.find k with
        | Some t when t = tid -> ()
        | Some _ | None -> incr lost)
      | Absent -> (
        incr settled;
        match part.Index_ops.find k with
        | Some _ -> incr phantoms
        | None -> ()))
    shadow;
  {
    v_shards = shards;
    v_settled = !settled;
    v_unsettled = !unsettled;
    v_lost = !lost;
    v_phantoms = !phantoms;
    v_ckpt_entries = !ckpt_entries;
    v_replayed = !replayed;
    v_fallbacks = !fallbacks;
    v_torn = !torn;
    v_clean = !clean;
    v_check_errors = !check_errors;
  }

let pp_verify fmt v =
  Format.fprintf fmt
    "crash verify: %d shard(s) recovered (%d ckpt entries + %d replayed, \
     %d fallbacks, %d torn tails, %d clean)@\n\
    \  %d settled keys reconciled, %d unsettled skipped@\n\
    \  lost acknowledged writes %d, phantoms %d, check errors %d@\n"
    v.v_shards v.v_ckpt_entries v.v_replayed v.v_fallbacks v.v_torn v.v_clean
    v.v_settled v.v_unsettled v.v_lost v.v_phantoms v.v_check_errors
