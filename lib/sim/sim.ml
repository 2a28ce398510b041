(* ei_sim: deterministic simulation testing for the index zoo and the
   serving layer.

   Three engines, FoundationDB-discipline throughout (every failure
   replays from a seed or an explicit artifact):

   1. Differential tapes — replay one {!Tape} through a subject and
      through the pure {!Oracle} (or any other subject), record a
      per-op result trace, and diff the traces.  Each subject runs the
      tape in its own full pass with the fault plan re-seeded
      identically, so per-site fault streams line up op-for-op across
      the pair and the diff sees semantics, not draw interleaving.

   2. Schedule exploration — {!Sched} fibers over the production yield
      points for the OLC tree, and seeded delay perturbation at the
      same sites for the real-domain Serve fleet (via {!explore_serve},
      which drives the ei_chaos soak with its shadow-model oracle).

   3. Shrinking — ddmin over op tapes and over schedules, emitting a
      replayable [.sim.json] artifact that `ei sim --replay` (or
      {!replay_artifact}) loads to reproduce a CI failure locally. *)

module Rng = Ei_util.Rng
module Key = Ei_util.Key
module Fnv = Ei_util.Fnv
module Strtbl = Ei_util.Strtbl
module Invariant = Ei_util.Invariant
module Fault = Ei_fault.Fault
module Table = Ei_storage.Table
module Index_ops = Ei_harness.Index_ops
module Registry = Ei_harness.Registry
module Olc = Ei_olc.Btree_olc
module Wal = Ei_wal.Wal
module J = Ei_util.Mini_json

(* --- Subjects --------------------------------------------------------- *)

type subject = {
  s_name : string;
  s_elastic : bool;  (* bound compliance is checkable at checkpoints *)
  s_make : Table.t -> Index_ops.t;
}

let subject ~name ~elastic make =
  { s_name = name; s_elastic = elastic; s_make = make }

let oracle ~key_len =
  {
    s_name = "oracle";
    s_elastic = true;  (* 0 bytes: trivially compliant *)
    s_make = (fun _ -> Oracle.create ~key_len ());
  }

let subject_names =
  [
    "oracle"; "btree"; "seqtree"; "skiplist"; "prefix"; "elastic";
    "elastic-skiplist"; "olc"; "olc-elastic";
  ]

let subject_of_name ?(bound = 1 lsl 20) ~key_len name =
  let mk ?leaf_capacity kind elastic =
    Ok
      {
        s_name = name;
        s_elastic = elastic;
        s_make =
          (fun table ->
            Registry.make ~name ?leaf_capacity ~key_len
              ~load:(Table.loader table) kind);
      }
  in
  match name with
  | "oracle" -> Ok (oracle ~key_len)
  | "btree" -> mk Registry.Stx false
  | "seqtree" -> mk (Registry.Seqtree 64) false
  | "skiplist" -> mk Registry.Skiplist false
  | "prefix" -> mk Registry.Prefix false
  | "elastic" ->
    mk
      (Registry.Elastic (Ei_core.Elasticity.default_config ~size_bound:bound))
      true
  | "elastic-skiplist" ->
    mk
      (Registry.Elastic_skiplist
         (Ei_core.Elastic_skiplist.default_config ~size_bound:bound))
      true
  | "olc" -> mk (Registry.Olc Olc.Olc_std) false
  | "olc-elastic" ->
    mk
      (Registry.Olc
         (Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:bound)))
      true
  | _ ->
    Error
      (Printf.sprintf "unknown subject %S (one of: %s)" name
         (String.concat " " subject_names))

(* --- Differential engine ---------------------------------------------- *)

(* Transient-fault site armed by tape fault windows; one draw per point
   op through {!Index_ops.inject}. *)
let op_site = Fault.site "sim.op"

type trace = string array

(* Replay the tape through one subject, recording one result string per
   op (plus a final implicit checkpoint, so end-state divergences
   survive any shrink that drops explicit checkpoints).  Determinism
   contract: everything here is a pure function of the tape —
   table appends are positional, fault windows re-seed the plan from
   (tape seed, window ordinal), and checkpoints walk the structure with
   the *unwrapped* index so they draw nothing. *)
let run_tape ?(slack = 3.0) ?(check_mem = false) (s : subject) (tape : Tape.t)
    : trace =
  let keys = Tape.keys tape in
  let table = Table.create ~key_len:tape.Tape.key_len () in
  let base_tid = Array.map (fun k -> Table.append table k) keys in
  let raw = s.s_make table in
  let ix = Index_ops.inject ~site:op_site raw in
  Fault.clear ();
  let nops = Array.length tape.Tape.ops in
  let out = Array.make (nops + 1) "" in
  let bound = ref 0 in
  let window = ref 0 in
  let windows = ref 0 in
  let checkpoint () =
    let n = raw.Index_ops.count () in
    let fp = Index_ops.fingerprint raw in
    let mem_ok =
      (not check_mem) || (not s.s_elastic) || !bound = 0
      || Float.compare
           (float_of_int (raw.Index_ops.memory_bytes ()))
           (slack *. float_of_int !bound)
         <= 0
    in
    Printf.sprintf "chk n=%d fp=%x mem=%b" n fp mem_ok
  in
  let point_op label f =
    let r = match f () with r -> r | exception Fault.Injected _ -> "!" in
    if !window > 0 then begin
      decr window;
      if !window = 0 then Fault.clear ()
    end;
    label ^ " " ^ r
  in
  Array.iteri
    (fun idx op ->
      out.(idx) <-
        (match op with
        | Tape.Insert i ->
          point_op
            (Printf.sprintf "ins %d" i)
            (fun () -> string_of_bool (ix.Index_ops.insert keys.(i) base_tid.(i)))
        | Tape.Remove i ->
          point_op
            (Printf.sprintf "rem %d" i)
            (fun () -> string_of_bool (ix.Index_ops.remove keys.(i)))
        | Tape.Update i ->
          (* The fresh row is appended before the op runs (and even if
             the op is injected away), so tids stay positional across
             subjects and across fault outcomes. *)
          let tid = Table.append table keys.(i) in
          point_op
            (Printf.sprintf "upd %d" i)
            (fun () -> string_of_bool (ix.Index_ops.update keys.(i) tid))
        | Tape.Find i ->
          point_op
            (Printf.sprintf "fnd %d" i)
            (fun () ->
              match ix.Index_ops.find keys.(i) with
              | Some tid -> string_of_int tid
              | None -> "none")
        | Tape.Scan (i, n) ->
          let h = ref 0 in
          let c =
            ix.Index_ops.scan_keys keys.(i) n (fun k -> h := Fnv.hash ~seed:!h k)
          in
          Printf.sprintf "scn %d %d -> %d %x" i n c !h
        | Tape.Set_bound b ->
          ix.Index_ops.set_size_bound b;
          bound := b;
          Printf.sprintf "bnd %d" b
        | Tape.Fault_window n ->
          incr windows;
          window := n;
          Fault.configure
            ~seed:(Tape.window_seed tape !windows)
            [ ("sim.op", 0.5) ];
          Printf.sprintf "flt %d" n
        | Tape.Checkpoint -> checkpoint ()))
    tape.Tape.ops;
  Fault.clear ();
  out.(nops) <- checkpoint ();
  out

type divergence = { d_index : int; d_a : string; d_b : string }

let diff_traces (a : trace) (b : trace) =
  let la = Array.length a and lb = Array.length b in
  let n = min la lb in
  let rec go i =
    if i >= n then
      if la = lb then None
      else
        Some
          {
            d_index = n;
            d_a = Printf.sprintf "<%d entries>" la;
            d_b = Printf.sprintf "<%d entries>" lb;
          }
    else if String.equal a.(i) b.(i) then go (i + 1)
    else Some { d_index = i; d_a = a.(i); d_b = b.(i) }
  in
  go 0

let diff_pair ?slack ?check_mem a b tape =
  let check_mem =
    match check_mem with
    | Some v -> v
    | None -> a.s_elastic && b.s_elastic
  in
  diff_traces
    (run_tape ?slack ~check_mem a tape)
    (run_tape ?slack ~check_mem b tape)

let shrink_tape ?slack ?check_mem ?(budget = 400) a b (tape : Tape.t) =
  let fails ops =
    Option.is_some (diff_pair ?slack ?check_mem a b { tape with Tape.ops })
  in
  { tape with Tape.ops = Ddmin.minimize ~budget tape.Tape.ops fails }

let pp_divergence ~a ~b d =
  Printf.sprintf "op %d: %s says %S, %s says %S" d.d_index a d.d_a b d.d_b

(* --- Scenario registry ------------------------------------------------ *)

let scenarios : (unit -> Sched.scenario) Strtbl.t = Strtbl.create 16
let register_scenario name mk = Strtbl.replace scenarios name mk
let scenario name = Strtbl.find_opt scenarios name

let scenario_names () =
  List.sort String.compare (Strtbl.fold (fun k _ acc -> k :: acc) scenarios [])

(* A deliberately racy read-modify-write: the self-test that proves the
   explorer finds real interleaving bugs (any schedule where both
   fibers read before either writes loses an update). *)
let lost_update_scenario () =
  let counter = ref 0 in
  let bump () =
    let v = !counter in
    Sched.pause ();
    counter := v + 1
  in
  {
    Sched.fibers = [| ("a", bump); ("b", bump) |];
    check =
      (fun () ->
        if !counter <> 2 then
          Invariant.brokenf "lost update: counter=%d, expected 2" !counter);
  }

let low_key key_len = String.make key_len '\000'

(* Two writers and a scanning reader over one elastic OLC tree under a
   tight bound: inserts race removes race in-place leaf conversions.
   Writers own disjoint key slices, so the final contents are
   schedule-independent and exactly checkable. *)
let olc_race_scenario () =
  let key_len = 8 in
  let table = Table.create ~key_len () in
  let nkeys = 64 in
  let keys = Array.init nkeys (fun i -> Key.of_int (i * 3)) in
  let tids = Array.map (fun k -> Table.append table k) keys in
  let tree =
    Olc.create ~leaf_capacity:8
      ~kind:(Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:2048))
      ~key_len ~load:(Table.loader table) ()
  in
  let expected i = i mod 3 <> 0 || i mod 6 = 0 in
  let writer lo hi () =
    for i = lo to hi - 1 do
      ignore (Olc.insert tree keys.(i) tids.(i));
      if i mod 3 = 0 then ignore (Olc.remove tree keys.(i));
      if i mod 6 = 0 then ignore (Olc.insert tree keys.(i) tids.(i))
    done
  in
  let reader () =
    for _ = 1 to 6 do
      let prev = ref "" in
      Olc.fold_range tree ~start:(low_key key_len) ~n:max_int
        (fun () k _ ->
          if String.length !prev > 0 && String.compare !prev k >= 0 then
            Invariant.broken "olc-race: scan not strictly ordered";
          prev := k)
        ();
      Sched.pause ()
    done
  in
  let check () =
    Olc.check_invariants tree;
    Array.iteri
      (fun i k ->
        let want = if expected i then Some tids.(i) else None in
        if not (Option.equal Int.equal want (Olc.find tree k)) then
          Invariant.brokenf "olc-race: key %d: wrong final state" i)
      keys
  in
  {
    Sched.fibers =
      [|
        ("w0", writer 0 (nkeys / 2));
        ("w1", writer (nkeys / 2) nkeys);
        ("scan", reader);
      |];
    check;
  }

(* A scanner crossing compact/standard leaf boundaries while a churn
   fiber slashes the bound and forces in-place conversions on the very
   leaves being scanned — the elasticity §4 edge.  Stable keys (evens)
   are never mutated, so every scan must return them all, in order. *)
let olc_convert_scan_scenario () =
  let key_len = 8 in
  let table = Table.create ~key_len () in
  let n = 96 in
  let keys = Array.init n Key.of_int in
  let tids = Array.map (fun k -> Table.append table k) keys in
  let tree =
    Olc.create ~leaf_capacity:8
      ~kind:
        (Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:(1 lsl 20)))
      ~key_len ~load:(Table.loader table) ()
  in
  Array.iteri
    (fun i k -> if i mod 2 = 0 then ignore (Olc.insert tree k tids.(i)))
    keys;
  let start = keys.(n / 4) in
  let churn () =
    Olc.set_size_bound tree 256;  (* enter shrinking: conversions start *)
    for i = 0 to n - 1 do
      if i mod 2 = 1 then begin
        ignore (Olc.insert tree keys.(i) tids.(i));
        if i mod 4 = 1 then ignore (Olc.remove tree keys.(i))
      end
    done;
    Olc.set_size_bound tree (1 lsl 20)  (* re-expand mid-scan *)
  in
  let scan () =
    for _ = 1 to 6 do
      let seen = ref [] in
      Olc.fold_range tree ~start ~n:max_int
        (fun () k _ -> seen := k :: !seen)
        ();
      let seen = List.rev !seen in
      let rec ordered = function
        | a :: (b :: _ as rest) ->
          if String.compare a b >= 0 then
            Invariant.broken "olc-convert-scan: scan not strictly ordered";
          ordered rest
        | _ -> ()
      in
      ordered seen;
      Array.iteri
        (fun i k ->
          if
            i mod 2 = 0
            && Key.compare k start >= 0
            && not (List.exists (String.equal k) seen)
          then Invariant.brokenf "olc-convert-scan: stable key %d missing" i)
        keys;
      Sched.pause ()
    done
  in
  let check () =
    Olc.check_invariants tree;
    Array.iteri
      (fun i k ->
        let want =
          if i mod 2 = 0 || i mod 4 = 3 then Some tids.(i) else None
        in
        if not (Option.equal Int.equal want (Olc.find tree k)) then
          Invariant.brokenf "olc-convert-scan: key %d: wrong final state" i)
      keys
  in
  { Sched.fibers = [| ("churn", churn); ("scan", scan) |]; check }

(* A batched reader interleaving group descents with a churn writer and
   in-place leaf conversions: the per-cursor restart discipline of
   [Olc.multi_find] under schedule exploration.  [yp_multi] yields once
   per lockstep round, so the scheduler can park the reader mid-batch
   with half its cursors resting on nodes the writer is about to split
   or convert.  Stable keys (evens) are never mutated — every batch
   must return exactly their tids — and the final check demands
   bit-equivalence with a sequential [find] loop. *)
let olc_multi_find_scenario () =
  let key_len = 8 in
  let table = Table.create ~key_len () in
  let n = 96 in
  let keys = Array.init n Key.of_int in
  let tids = Array.map (fun k -> Table.append table k) keys in
  let tree =
    Olc.create ~leaf_capacity:8
      ~kind:
        (Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:(1 lsl 20)))
      ~key_len ~load:(Table.loader table) ()
  in
  Array.iteri
    (fun i k -> if i mod 2 = 0 then ignore (Olc.insert tree k tids.(i)))
    keys;
  (* the batch mixes stable, churned and duplicate keys *)
  let probe = Array.init 24 (fun j -> keys.(j * 4 mod n)) in
  let churn () =
    Olc.set_size_bound tree 256;  (* enter shrinking: conversions start *)
    for i = 0 to n - 1 do
      if i mod 2 = 1 then begin
        ignore (Olc.insert tree keys.(i) tids.(i));
        if i mod 4 = 1 then ignore (Olc.remove tree keys.(i))
      end
    done;
    Olc.set_size_bound tree (1 lsl 20)
  in
  let reader () =
    for _ = 1 to 6 do
      let got = Olc.multi_find tree probe in
      Array.iteri
        (fun j k ->
          let i = j * 4 mod n in
          if i mod 2 = 0 && not (Option.equal Int.equal got.(j) (Some tids.(i)))
          then
            Invariant.brokenf "olc-multi-find: stable key %d wrong in batch" i;
          ignore k)
        probe;
      Sched.pause ()
    done
  in
  let check () =
    Olc.check_invariants tree;
    let batched = Olc.multi_find tree keys in
    Array.iteri
      (fun i k ->
        let want =
          if i mod 2 = 0 || i mod 4 = 3 then Some tids.(i) else None
        in
        if not (Option.equal Int.equal want batched.(i)) then
          Invariant.brokenf "olc-multi-find: key %d: wrong final state" i;
        if not (Option.equal Int.equal batched.(i) (Olc.find tree k)) then
          Invariant.brokenf "olc-multi-find: key %d: batch <> find loop" i)
      keys
  in
  { Sched.fibers = [| ("churn", churn); ("batch", reader) |]; check }

(* A WAL writer racing a crash lever under schedule exploration: the
   durability-prefix contract of {!Ei_wal.Wal}.  One fiber applies a
   fixed op tape (inserts, removes, in-place updates, elastic bound
   retunes) to a live part while logging every mutation, group-
   committing every 4 ops; a crasher fiber pauses a few times and then
   fires a deterministic crash lever — [crash_torn] (the batch tail
   never reaches the file) or [crash_unsynced] (everything since the
   last fsync lived only in the page cache).  Where the crash lands
   relative to the writer's commits is exactly what the scheduler
   explores.

   The check recovers the shard from disk into a fresh part and demands
   that the recovered state is a *prefix* of the logged history: its
   fingerprint must equal the shadow oracle's fingerprint at LSN
   [r_last_lsn], and that LSN must lie in the window
   [durable-at-crash, appended-at-crash] — below the window an fsynced
   (hence acknowledgeable) record was lost; above it recovery invented
   records.  The recovered elastic bound is held to the same prefix.
   [wal-torn] runs with fsync_every = 1 (ack => durable: the window
   floor is every committed op); [wal-fsync] runs with fsync_every = 3,
   so committed-but-unsynced batches legally vanish and the window is
   genuinely wide. *)
let wal_crash_scenario ~label ~fsync_every ~crash () =
  let key_len = 8 in
  let table = Table.create ~key_len () in
  let n = 40 in
  let keys = Array.init n Key.of_int in
  let tids = Array.map (fun k -> Table.append table k) keys in
  (* second row per key, so updates remap to a real, distinct tid *)
  let alt = Array.map (fun k -> Table.append table k) keys in
  let mk_part name table =
    Registry.make ~name ~key_len ~load:(Table.loader table)
      (Registry.Elastic
         (Ei_core.Elasticity.default_config ~size_bound:(1 lsl 20)))
  in
  let part = mk_part (label ^ "-live") table in
  let shadow = Oracle.create ~key_len () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ei-sim-%d-%s" (Unix.getpid ()) label)
  in
  Wal.reset_dir dir;
  let cfg =
    {
      (Wal.default_config ~dir) with
      Wal.fsync_every;
      checkpoint_every = 4;
      segment_bytes = 1024;  (* force rotation inside a 40-op tape *)
    }
  in
  let w, _ = Wal.recover cfg ~shard:0 ~part in
  (* shadow fingerprint and expected elastic bound per LSN (dense,
     1-based, at most 4 records per tape step): the oracle prefix
     states the recovered part must land on *)
  let max_lsn = 4 * n in
  let recorded = Array.make (max_lsn + 1) false in
  let fps = Array.make (max_lsn + 1) 0 in
  let bnds = Array.make (max_lsn + 1) 0 in
  let bound_now = ref 0 in
  recorded.(0) <- true;
  fps.(0) <- Index_ops.fingerprint shadow;
  let record () =
    let l = Wal.last_lsn w in
    recorded.(l) <- true;
    fps.(l) <- Index_ops.fingerprint shadow;
    bnds.(l) <- !bound_now
  in
  let crash_at = ref None in
  let writer () =
    try
      for i = 0 to n - 1 do
        if i mod 10 = 5 then begin
          let b = if i mod 20 = 5 then 512 else 1 lsl 20 in
          Wal.log_bound w b;
          part.Index_ops.set_size_bound b;
          bound_now := b;
          record ()
        end;
        Wal.log_insert w keys.(i) tids.(i);
        ignore (part.Index_ops.insert keys.(i) tids.(i));
        ignore (shadow.Index_ops.insert keys.(i) tids.(i));
        record ();
        if i mod 5 = 3 then begin
          Wal.log_remove w keys.(i - 2);
          ignore (part.Index_ops.remove keys.(i - 2));
          ignore (shadow.Index_ops.remove keys.(i - 2));
          record ()
        end;
        if i mod 7 = 6 then begin
          Wal.log_update w keys.(i - 1) alt.(i - 1);
          ignore (part.Index_ops.update keys.(i - 1) alt.(i - 1));
          ignore (shadow.Index_ops.update keys.(i - 1) alt.(i - 1));
          record ()
        end;
        if i mod 4 = 3 then Wal.commit w ~part;
        Sched.pause ()
      done
    with Wal.Died _ -> ()
  in
  let crasher () =
    Sched.pause ();
    Sched.pause ();
    Sched.pause ();
    crash_at := Some (Wal.durable_lsn w, Wal.last_lsn w);
    try crash w with Wal.Died _ -> ()
  in
  let check () =
    let durable, appended =
      match !crash_at with
      | Some x -> x
      | None -> Invariant.broken (label ^ ": crash lever never fired")
    in
    Wal.dispose w;
    let rtable = Table.create ~key_len () in
    let fresh = mk_part (label ^ "-recovered") rtable in
    let w2, r =
      Wal.recover cfg ~shard:0
        ~restore:(fun ~tid ~key -> Table.restore_row rtable ~tid ~key)
        ~part:fresh
    in
    Wal.close w2;
    if r.Wal.r_clean then
      Invariant.brokenf "%s: clean-shutdown marker present after a crash"
        label;
    if r.Wal.r_last_lsn < durable then
      Invariant.brokenf "%s: durable record lost: recovered to LSN %d < %d"
        label r.Wal.r_last_lsn durable;
    if r.Wal.r_last_lsn > appended then
      Invariant.brokenf "%s: recovered past the append horizon: %d > %d"
        label r.Wal.r_last_lsn appended;
    let l = r.Wal.r_last_lsn in
    if l > max_lsn || not recorded.(l) then
      Invariant.brokenf "%s: recovered to an unknown LSN %d" label l;
    if Index_ops.fingerprint fresh <> fps.(l) then
      Invariant.brokenf
        "%s: recovered state is not the LSN-%d prefix of the history" label l;
    if r.Wal.r_bound <> bnds.(l) then
      Invariant.brokenf "%s: recovered bound %d, prefix says %d" label
        r.Wal.r_bound bnds.(l)
  in
  { Sched.fibers = [| ("writer", writer); ("crash", crasher) |]; check }

let wal_torn_scenario () =
  wal_crash_scenario ~label:"wal-torn" ~fsync_every:1 ~crash:Wal.crash_torn ()

let wal_fsync_scenario () =
  wal_crash_scenario ~label:"wal-fsync" ~fsync_every:3
    ~crash:Wal.crash_unsynced ()

(* The ei_net connection state machines under adversarial interleavings
   of partial reads and writes — runnable here precisely because they
   are pure: no socket, no lock, just bytes in and bytes out.

   Three fibers share two in-memory byte pipes.  A client writer pushes
   the encoded requests toward the server in 1–3 byte chunks and drops
   the connection mid-frame (the last request's frame is cut short); a
   server fiber reads short chunks, feeds the {!Ei_net.Session} engine,
   forms rounds on its own cadence (every third step, so frames pile up
   past the window and the shed path runs), completes them from a pure
   model, and flushes the reply bytes in short writes; a client reader
   consumes the reply stream one byte at a time.

   The check is schedule-independent even though shedding is not:
   whatever the interleaving, the replies must be exactly one per
   completely-received request, in request order (the ordered-prefix
   invariant: batch acks always carry older ids than the same round's
   [Busy] sheds), each either [Applied] with the model's value or
   [Busy] — never a lost, duplicated, reordered or corrupted reply,
   and never a reply for the torn frame. *)
let net_pipeline_scenario () =
  let module Wire = Ei_net.Wire in
  let module Conn = Ei_net.Conn in
  let module Session = Ei_net.Session in
  let n = 10 in
  let window = 3 in
  let reqs =
    Array.init n (fun i ->
        { Wire.id = i; op = Wire.Insert (Printf.sprintf "key-%04d" i) })
  in
  let c2s = Buffer.create 512 in
  let c2s_off = ref 0 in
  let c2s_eof = ref false in
  let s2c = Buffer.create 512 in
  let s2c_off = ref 0 in
  let s2c_eof = ref false in
  let session = Session.create ~window () in
  let reader = Conn.reader ~decode:Wire.decode_reply in
  let replies = ref [] in
  let client_writer () =
    let all =
      String.concat ""
        (Array.to_list (Array.map Wire.encode_request reqs))
    in
    (* Cut the tail mid-frame: the last request must get no reply. *)
    let keep = String.length all - 5 in
    let i = ref 0 in
    while !i < keep do
      let len = min (1 + (!i mod 3)) (keep - !i) in
      Buffer.add_substring c2s all !i len;
      i := !i + len;
      Sched.pause ()
    done;
    c2s_eof := true
  in
  let server () =
    let step = ref 0 in
    let finished () =
      !c2s_eof
      && !c2s_off = Buffer.length c2s
      && Session.queued session = 0
      && Session.out_pending session = 0
    in
    while not (finished ()) do
      let avail = Buffer.length c2s - !c2s_off in
      if avail > 0 then begin
        let len = min (1 + (7 * !step mod 37)) avail in
        let chunk = Buffer.sub c2s !c2s_off len in
        c2s_off := !c2s_off + len;
        match Session.feed session chunk with
        | Ok () -> ()
        | Error msg ->
          Invariant.brokenf "net-pipeline: server saw corruption: %s" msg
      end;
      (* Rounds only every third step: decoded requests pile up past the
         window in between, so some schedules exercise the Busy shed. *)
      if !step mod 3 = 0 || (!c2s_eof && !c2s_off = Buffer.length c2s) then begin
        let batch = Session.take session in
        if Array.length batch > 0 then
          Session.complete session
            (Array.map
               (fun (r : Wire.request) -> Wire.Applied r.Wire.id)
               batch)
      end;
      Buffer.add_string s2c
        (Session.out_take session ~max:(1 + (!step mod 5)));
      incr step;
      Sched.pause ()
    done;
    s2c_eof := true
  in
  let client_reader () =
    let finished () = !s2c_eof && !s2c_off = Buffer.length s2c in
    while not (finished ()) do
      if Buffer.length s2c - !s2c_off > 0 then begin
        let chunk = Buffer.sub s2c !s2c_off 1 in
        s2c_off := !s2c_off + 1;
        match Conn.feed reader chunk with
        | Ok rs -> List.iter (fun r -> replies := r :: !replies) rs
        | Error msg ->
          Invariant.brokenf "net-pipeline: client saw corruption: %s" msg
      end;
      Sched.pause ()
    done
  in
  let check () =
    (match Session.error session with
    | Some e -> Invariant.brokenf "net-pipeline: session poisoned: %s" e
    | None -> ());
    let rs = List.rev !replies in
    let expect = n - 1 in
    if List.length rs <> expect then
      Invariant.brokenf "net-pipeline: %d replies for %d complete requests"
        (List.length rs) expect;
    List.iteri
      (fun i (r : Wire.reply) ->
        if r.Wire.rid <> i then
          Invariant.brokenf
            "net-pipeline: reply %d carries id %d — lost or reordered" i
            r.Wire.rid;
        match r.Wire.status with
        | Wire.Applied v when v = i -> ()
        | Wire.Busy -> ()
        | _ ->
          Invariant.brokenf "net-pipeline: id %d: unexpected %s" i
            (Wire.describe_reply r))
      rs
  in
  {
    Sched.fibers =
      [| ("cw", client_writer); ("srv", server); ("cr", client_reader) |];
    check;
  }

let () =
  register_scenario "lost-update" lost_update_scenario;
  register_scenario "olc-race" olc_race_scenario;
  register_scenario "olc-convert-scan" olc_convert_scan_scenario;
  register_scenario "olc-multi-find" olc_multi_find_scenario;
  register_scenario "wal-torn" wal_torn_scenario;
  register_scenario "wal-fsync" wal_fsync_scenario;
  register_scenario "net-pipeline" net_pipeline_scenario

(* --- Serve exploration ------------------------------------------------ *)

(* Real domains cannot be cooperatively scheduled, so the Serve fleet
   is explored by *perturbation*: a tap that injects seeded microsecond
   delays at the yield/fault sites of the serving stack, stretching the
   submit/apply/recover windows, while the ei_chaos soak provides the
   oracle (shadow model, zero lost acks, deep validation).  This
   samples schedules rather than enumerating them; byte-exact replay is
   the tape and fiber engines' job. *)
let perturbed_prefixes = [ "serve."; "olc."; "queue."; "net." ]

let explore_serve ?(shards = 2) ?(scale = 0.02) ~seed ~rounds () =
  let module Chaos = Ei_chaos.Chaos in
  let rec go r =
    if r >= rounds then None
    else begin
      let round_seed = seed + r in
      let rng = Rng.stream round_seed 0x7e57 in
      let lock = Mutex.create () in
      let tap site =
        let delay_us =
          Mutex.lock lock;
          let d = if Rng.int rng 4 = 0 then 1 + Rng.int rng 200 else 0 in
          Mutex.unlock lock;
          d
        in
        if
          delay_us > 0
          && List.exists
               (fun p -> String.starts_with ~prefix:p site)
               perturbed_prefixes
        then Unix.sleepf (float_of_int delay_us *. 1e-6)
      in
      Fault.set_tap (Some tap);
      let report =
        Fun.protect
          ~finally:(fun () -> Fault.set_tap None)
          (fun () ->
            Chaos.run { (Chaos.default_config ~seed:round_seed) with shards; scale })
      in
      if Chaos.ok report then go (r + 1)
      else
        Some
          ( round_seed,
            Format.asprintf "%a" Chaos.pp_report report )
    end
  in
  go 0

(* --- Artifacts -------------------------------------------------------- *)

type artifact =
  | A_diff of {
      tape : Tape.t;
      a : string;
      b : string;
      bound : int;
      slack : float;
      check_mem : bool;
      divergence : string;  (* informational: what the writer saw *)
    }
  | A_sched of {
      scenario : string;
      seed : int;  (* informational: the failing explore round *)
      schedule : int list;
      error : string;
    }
  | A_serve of {
      seed : int;  (* the exact per-round chaos seed *)
      shards : int;
      scale : float;
      error : string;
    }

let artifact_to_json = function
  | A_diff { tape; a; b; bound; slack; check_mem; divergence } ->
    J.Obj
      [
        ("kind", J.Str "diff");
        ("a", J.Str a);
        ("b", J.Str b);
        ("bound", J.Int bound);
        ("slack", J.Float slack);
        ("check_mem", J.Bool check_mem);
        ("divergence", J.Str divergence);
        ("tape", Tape.to_json tape);
      ]
  | A_sched { scenario; seed; schedule; error } ->
    J.Obj
      [
        ("kind", J.Str "sched");
        ("scenario", J.Str scenario);
        ("seed", J.Int seed);
        ("schedule", J.List (List.map (fun c -> J.Int c) schedule));
        ("error", J.Str error);
      ]
  | A_serve { seed; shards; scale; error } ->
    J.Obj
      [
        ("kind", J.Str "serve");
        ("seed", J.Int seed);
        ("shards", J.Int shards);
        ("scale", J.Float scale);
        ("error", J.Str error);
      ]

let artifact_of_json j =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (J.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "artifact: missing or bad field %S" name)
  in
  let* kind = field "kind" J.as_str in
  match kind with
  | "diff" ->
    let* a = field "a" J.as_str in
    let* b = field "b" J.as_str in
    let* bound = field "bound" J.as_int in
    let* slack = field "slack" J.as_float in
    let* check_mem = field "check_mem" J.as_bool in
    let* divergence = field "divergence" J.as_str in
    let* tape =
      match J.member "tape" j with
      | Some tj -> Tape.of_json tj
      | None -> Error "artifact: missing tape"
    in
    Ok (A_diff { tape; a; b; bound; slack; check_mem; divergence })
  | "sched" ->
    let* scenario = field "scenario" J.as_str in
    let* seed = field "seed" J.as_int in
    let* error = field "error" J.as_str in
    let* raw = field "schedule" J.as_list in
    let* schedule =
      List.fold_left
        (fun acc c ->
          let* acc = acc in
          match J.as_int c with
          | Some i -> Ok (i :: acc)
          | None -> Error "artifact: non-int schedule entry")
        (Ok []) raw
    in
    Ok (A_sched { scenario; seed; schedule = List.rev schedule; error })
  | "serve" ->
    let* seed = field "seed" J.as_int in
    let* shards = field "shards" J.as_int in
    let* scale = field "scale" J.as_float in
    let* error = field "error" J.as_str in
    Ok (A_serve { seed; shards; scale; error })
  | k -> Error (Printf.sprintf "artifact: unknown kind %S" k)

let write_artifact ~path artifact =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (J.to_string (artifact_to_json artifact));
      output_char oc '\n')

let read_artifact ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Result.bind (J.parse s) artifact_of_json
  | exception Sys_error e -> Error e

(* Reproduce an artifact: [Ok (true, msg)] when the failure fires
   again, [Ok (false, msg)] when it no longer does (fixed — or, for
   the perturbation engine, not deterministic), [Error] when the
   artifact cannot be run at all. *)
let replay_artifact artifact : (bool * string, string) result =
  match artifact with
  | A_diff { tape; a; b; bound; slack; check_mem; _ } -> (
    let key_len = tape.Tape.key_len in
    match
      ( subject_of_name ~bound ~key_len a,
        subject_of_name ~bound ~key_len b )
    with
    | Ok sa, Ok sb -> (
      match diff_pair ~slack ~check_mem sa sb tape with
      | Some d -> Ok (true, pp_divergence ~a ~b d)
      | None -> Ok (false, "traces agree: divergence no longer reproduces"))
    | Error e, _ | _, Error e -> Error e)
  | A_sched { scenario = name; schedule; error; _ } -> (
    match scenario name with
    | None ->
      Error
        (Printf.sprintf "unknown scenario %S (one of: %s)" name
           (String.concat " " (scenario_names ())))
    | Some mk -> (
      match Sched.replay ~schedule mk with
      | Error (_, e) -> Ok (true, "reproduced: " ^ e)
      | Ok _ ->
        Ok (false, "schedule passes: no longer reproduces (was: " ^ error ^ ")")))
  | A_serve { seed; shards; scale; _ } -> (
    match explore_serve ~shards ~scale ~seed ~rounds:1 () with
    | Some (_, e) -> Ok (true, "reproduced:\n" ^ e)
    | None -> Ok (false, "round passes: not reproduced (perturbation samples)"))

let replay_file ~path =
  Result.bind (read_artifact ~path) replay_artifact
