(* Building, loading, driving and tearing down a workload's system. *)

module Table = Ei_storage.Table
module Olc = Ei_olc.Btree_olc
module Index_ops = Ei_harness.Index_ops
module Shard = Ei_shard.Shard
module Serve = Ei_shard.Serve
module Wal = Ei_wal.Wal
module Ycsb = Ei_workload.Ycsb

let run_dir = ".bench_run"

let fresh_path =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat run_dir (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !n)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  | st -> st.Unix.st_size

type fleet = {
  table : Table.t;
  trees : Olc.t array;
  parts : Index_ops.t array;
  router : Shard.t;
}

let bound_per_shard (w : Wl.t) = max 1 (Wl.global_bound w / w.shards)

(* Elastic BTreeOLC shards over one row table, with the torn-read-proof
   loader concurrently compacted leaves need. *)
let make_fleet (w : Wl.t) table =
  let load =
    Olc.safe_loader ~key_len:8
      ~table_length:(fun () -> Table.length table)
      ~load:(Table.loader table)
  in
  let mk () =
    Olc.create ~leaf_capacity:16
      ~kind:(Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:(bound_per_shard w)))
      ~key_len:8 ~load ()
  in
  let trees = Array.init w.shards (fun _ -> mk ()) in
  let parts =
    Array.mapi (fun i t -> Index_ops.of_olc (Printf.sprintf "olc-elastic/%d" i) t) trees
  in
  let rebuild i = Index_ops.of_olc (Printf.sprintf "olc-elastic/%d" i) (mk ()) in
  ({ table; trees; parts; router = Shard.create parts }, rebuild)

let loaded_table (w : Wl.t) =
  let table = Table.create ~initial_capacity:(w.keys + (w.keys / 2)) ~key_len:8 () in
  for s = 0 to w.keys - 1 do
    ignore (Table.append table (Ycsb.key_of_seq s))
  done;
  table

let coordinator w = Serve.default_coordinator ~global_bound:(Wl.global_bound w)

(* One find per shard: when it returns, every shard domain has finished
   its previous batch, published size included, so the coordinator pass
   that follows reads sizes that are a function of the op stream. *)
let barrier serve fleet =
  let probe =
    Array.init (Array.length fleet.parts) (fun i ->
        let s = ref 0 in
        while Shard.shard_of_key fleet.router (Ycsb.key_of_seq !s) <> i do
          incr s
        done;
        Serve.Find (Ycsb.key_of_seq !s))
  in
  fun () -> ignore (Serve.exec serve probe)

let load_through serve (w : Wl.t) ~rebalance =
  let n = w.keys in
  let calls = ref 0 in
  let i = ref 0 in
  while !i < n do
    let len = min 512 (n - !i) in
    let ops = Array.init len (fun j -> Serve.Insert (Ycsb.key_of_seq (!i + j), !i + j)) in
    Array.iteri
      (fun j o ->
        match o with
        | Serve.Applied 1 -> ()
        | Serve.Applied r ->
          failwith (Printf.sprintf "set-up: load insert of seq %d answered %d" (!i + j) r)
        | Serve.Rejected | Serve.Timed_out ->
          failwith
            (Printf.sprintf "set-up: load insert of seq %d was %s" (!i + j)
               (if o = Serve.Rejected then "rejected" else "timed out")))
      (Serve.exec serve ops);
    i := !i + len;
    incr calls;
    if !calls mod Wl.rebalance_every = 0 then rebalance ()
  done;
  rebalance ()

type sys = {
  w : Wl.t;
  fleet : fleet;
  serve : Serve.t;
  rebalance : unit -> unit;
  wal_dir : string option;
  server : Ei_net.Server.t option;
  sock : Unix.file_descr option;
  sock_path : string option;
}

(* The WAL under test never syncs: no fsync per commit, no checkpoints
   (whose files are fsynced).  The benchmark may write only inside its
   checkout, on whatever disk that is, and there commit fsyncs and
   checkpoints made identical churn-wal runs differ by up to 2.5x; with
   them off its framing, group-commit writes and recovery replay are
   CPU work that repeats.  The standalone writer rung of the ladder keeps
   the default cadences, so wal.commit_us and wal.checkpoints still show
   the syncing costs. *)
let wal_config dir = { (Wal.default_config ~dir) with Wal.fsync_every = 0; checkpoint_every = 0 }

let start_serve (w : Wl.t) fleet ~rebuild ~wal ?wal_restore () =
  let supervisor =
    match w.kind with
    | Wl.Churn_wal -> Some (Serve.default_supervisor ~table:fleet.table ~rebuild)
    | Wl.Read_dram | Wl.Net_mixed -> None
  in
  let serve = Serve.start ?supervisor ?wal ?wal_restore fleet.router in
  let barrier = barrier serve fleet in
  let rebalance () =
    if w.shards > 1 then begin
      barrier ();
      let b0 = Serve.batches serve in
      Serve.rebalance_with serve (coordinator w);
      (* Serve.batches counts a bound message once its shard has applied
         it (and committed it to the WAL).  Waiting for that keeps each
         bound in a commit of its own instead of sometimes sharing the
         next call's, so the WAL's commit count -- and with it the
         checkpoint schedule -- follows the op stream.  (The barrier's
         own count can still land after [b0] is read, ending the wait
         early; a shard domain finishes that bookkeeping well before the
         woken client runs, and the equal-seed self-test would show it.) *)
      while Serve.batches serve < b0 + w.shards do
        Domain.cpu_relax ()
      done
    end
  in
  (serve, rebalance)

let of_serve w fleet serve =
  { w; fleet; serve; rebalance = ignore; wal_dir = None; server = None; sock = None; sock_path = None }

(* Put the wire front end on a Unix socket in front of [sys.serve] and
   connect one client.  The path is relative to the run directory's
   parent, keeping it under the socket-path length limit. *)
let attach_net sys =
  let path = fresh_path "s" ^ ".sock" in
  let addr = Unix.ADDR_UNIX path in
  (* Server.start returns after listen(2), so the connect cannot race it. *)
  let server = Ei_net.Server.start ~serve:sys.serve ~table:sys.fleet.table addr in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  { sys with server = Some server; sock = Some fd; sock_path = Some path }

(* Set-up, timed by the caller.  The fingerprint checks run untimed
   inside it; their seconds are returned for the caller to subtract. *)
let setup (w : Wl.t) =
  let unt = ref 0 in
  let untimed f =
    let t0 = Clock.now_ns () in
    let v = f () in
    unt := !unt + (Clock.now_ns () - t0);
    v
  in
  let table = loaded_table w in
  let fleet, rebuild = make_fleet w table in
  let sys =
    match w.kind with
    | Wl.Read_dram | Wl.Net_mixed ->
      let serve, rebalance = start_serve w fleet ~rebuild ~wal:None () in
      load_through serve w ~rebalance;
      { (of_serve w fleet serve) with rebalance }
    | Wl.Churn_wal ->
      (* Load through the WAL, stop cleanly, restart from disk. *)
      let dir = fresh_path "wal" in
      Wal.reset_dir dir;
      let wal = Some (wal_config dir) in
      let serve, rebalance = start_serve w fleet ~rebuild ~wal () in
      load_through serve w ~rebalance;
      let before = untimed (fun () -> Index_ops.fingerprint (Shard.index_ops fleet.router)) in
      Serve.stop serve;
      let table = Table.create ~initial_capacity:(w.keys * 2) ~key_len:8 () in
      let fleet, rebuild = make_fleet w table in
      let serve, rebalance =
        start_serve w fleet ~rebuild ~wal
          ~wal_restore:(fun ~tid ~key -> Table.restore_row table ~tid ~key)
          ()
      in
      untimed (fun () ->
          let after = Index_ops.fingerprint (Shard.index_ops fleet.router) in
          if after <> before then failwith "set-up: fingerprint changed across the WAL restart";
          if Table.length table <> w.keys then failwith "set-up: recovered row table has the wrong length");
      { (of_serve w fleet serve) with rebalance; wal_dir = Some dir }
  in
  let sys = match w.kind with Wl.Net_mixed -> attach_net sys | Wl.Read_dram | Wl.Churn_wal -> sys in
  (sys, float_of_int !unt /. 1e9)

(* Stop everything the system started; the fleet stays readable. *)
let stop sys =
  Option.iter Unix.close sys.sock;
  Option.iter Ei_net.Server.stop sys.server;
  Serve.stop sys.serve;
  Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) sys.sock_path

let discard sys = Option.iter remove_tree sys.wal_dir

(* Peak resident set, MiB. *)
let rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let kb = go () in
  close_in ic;
  float_of_int kb /. 1024.

(* --- Driving the system ---------------------------------------------- *)

(* An append-only int32 array.  Its storage is reserved once and only
   the pages written become resident, so the samples a run keeps add
   4 bytes each to rss_mb instead of a doubling copy whose size depends
   on how fast the run went. *)
module Vec = struct
  open Bigarray

  type t = { a : (int32, int32_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create int32 c_layout (1 lsl 24); n = 0 }

  let push v x =
    if v.n < Array1.dim v.a then begin
      v.a.{v.n} <- Int32.of_int x;
      v.n <- v.n + 1
    end

  let get v i = Int32.to_int v.a.{i}
end

(* Per-sample records: one per client call in-process, one per request
   on the wire. *)
type tally = {
  born : int;  (** creation time, ns *)
  mutable calls : int;
  mutable attempted : int;
  mutable ok : int;
  mutable writes : int;  (** acknowledged mutations *)
  mutable busy_ns : int;  (** time inside client calls *)
  ends : Vec.t;  (** completion time, us after [born] *)
  lats : Vec.t;  (** latency, ns *)
  busys : Vec.t;  (** time inside the call, ns (0 on the wire) *)
  oks : Vec.t;  (** correctly answered ops *)
  mutable first_bad : string option;
}

let tally () =
  {
    born = Clock.now_ns ();
    calls = 0;
    attempted = 0;
    ok = 0;
    writes = 0;
    busy_ns = 0;
    ends = Vec.create ();
    lats = Vec.create ();
    busys = Vec.create ();
    oks = Vec.create ();
    first_bad = None;
  }

let sample t ~end_ns ~lat ~busy ~oks =
  Vec.push t.ends ((end_ns - t.born) / 1000);
  Vec.push t.lats lat;
  Vec.push t.busys busy;
  Vec.push t.oks oks

let quantile (a : int array) q =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let a = Array.copy a in
    Array.sort Int.compare a;
    a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

(* Throughput, median and p90 latency (ns) of each of [k] equal slices
   of the phase's wall time (samples are recorded in completion order).
   In-process throughput is per second spent in calls; on the wire, per
   second of the slice. *)
let windows t ~k =
  let n = t.ends.Vec.n in
  let t0 = Vec.get t.ends 0 - (Vec.get t.lats 0 / 1000) and t1 = Vec.get t.ends (n - 1) in
  let slot i = min (k - 1) ((Vec.get t.ends i - t0) * k / max 1 (t1 - t0)) in
  let first = Array.make (k + 1) n in
  for i = n - 1 downto 0 do
    first.(slot i) <- i
  done;
  for w = k - 1 downto 0 do
    first.(w) <- min first.(w) first.(w + 1)
  done;
  List.init k (fun w ->
      let lo = first.(w) and hi = first.(w + 1) in
      let sum (v : Vec.t) =
        let a = ref 0 in
        for i = lo to hi - 1 do
          a := !a + Vec.get v i
        done;
        !a
      in
      let lats = Array.init (hi - lo) (fun i -> Vec.get t.lats (lo + i)) in
      let busy = sum t.busys in
      let secs = if busy > 0 then float_of_int busy /. 1e9 else float_of_int (t1 - t0) /. 1e6 /. float_of_int k in
      (float_of_int (sum t.oks) /. secs, quantile lats 0.5, quantile lats 0.9))

let record t (op : Wl.op) got =
  t.attempted <- t.attempted + 1;
  if got = Some op.Wl.expect then begin
    t.ok <- t.ok + 1;
    if Wl.is_write op then t.writes <- t.writes + 1
  end
  else if t.first_bad = None then
    t.first_bad <-
      Some
        (Printf.sprintf "op %d (seq %d) expected %d, got %s" t.attempted op.Wl.seq
           op.Wl.expect
           (match got with Some v -> string_of_int v | None -> "no answer"))

(* One in-process client call: append the rows fresh inserts point at,
   submit the batch, check every reply against the shadow model. *)
let exec_call sys (t : tally) ?(span = false) ops =
  let t0 = Clock.now_ns () in
  let id = if span then Clock.Spans.start "client.call" else -1 in
  Array.iter
    (fun (op : Wl.op) ->
      if op.Wl.tag = Wl.Insert then begin
        let tid = Ei_storage.Table.append sys.fleet.table op.Wl.key in
        if tid <> op.Wl.tid then failwith "row table out of step with the shadow model"
      end)
    ops;
  let t1 = Clock.now_ns () in
  let outs = Serve.exec sys.serve (Array.map Wl.to_serve ops) in
  let t2 = Clock.now_ns () in
  t.calls <- t.calls + 1;
  if t.calls mod Wl.rebalance_every = 0 then sys.rebalance ();
  Clock.Spans.stop id;
  let t3 = Clock.now_ns () in
  t.busy_ns <- t.busy_ns + (t3 - t0);
  let ok0 = t.ok in
  Array.iteri
    (fun i op ->
      record t op (match outs.(i) with Serve.Applied v -> Some v | _ -> None))
    ops;
  sample t ~end_ns:t3 ~lat:(t2 - t1) ~busy:(t3 - t0) ~oks:(t.ok - ok0)

(* Closed loop over the wire: [w.batch] requests outstanding, a new one
   per reply, until [stop ()] holds; latency is send -> reply. *)
let net_loop sys ~next (t : tally) ?(span = false) ~stop () =
  let fd = Option.get sys.sock in
  let window = sys.w.Wl.batch in
  let inflight = Array.make window None in
  let sent_ns = Array.make window 0 in
  let span_of = Array.make window (-1) in
  let next_id = ref 0 and done_id = ref 0 in
  let reader = Ei_net.Conn.reader ~decode:Ei_net.Wire.decode_reply in
  let buf = Bytes.create 65536 in
  let out = Buffer.create 4096 in
  let t0 = Clock.now_ns () in
  let sending = ref true in
  while !sending || !done_id < !next_id do
    if !sending && stop !next_id then sending := false;
    if !sending then begin
      Buffer.clear out;
      while !next_id - !done_id < window && not (stop !next_id) do
        let op = next () in
        let slot = !next_id mod window in
        inflight.(slot) <- Some op;
        span_of.(slot) <- (if span then Clock.Spans.start "client.request" else -1);
        sent_ns.(slot) <- Clock.now_ns ();
        Ei_net.Wire.encode_request_into out { Ei_net.Wire.id = !next_id; op = Wl.to_wire op };
        incr next_id
      done;
      let s = Buffer.contents out in
      let i = ref 0 in
      while !i < String.length s do
        i := !i + Unix.write_substring fd s !i (String.length s - !i)
      done
    end;
    if !done_id < !next_id then begin
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then failwith "server closed the connection";
      match Ei_net.Conn.feed reader (Bytes.sub_string buf 0 n) with
      | Error msg -> failwith ("corrupt reply stream: " ^ msg)
      | Ok replies ->
        let now = Clock.now_ns () in
        List.iter
          (fun (r : Ei_net.Wire.reply) ->
            if r.Ei_net.Wire.rid <> !done_id then failwith "reply out of order";
            let slot = !done_id mod window in
            let op = Option.get inflight.(slot) in
            Clock.Spans.stop span_of.(slot);
            t.calls <- t.calls + 1;
            let ok0 = t.ok in
            record t op
              (match r.Ei_net.Wire.status with Ei_net.Wire.Applied v -> Some v | _ -> None);
            sample t ~end_ns:now ~lat:(now - sent_ns.(slot)) ~busy:0 ~oks:(t.ok - ok0);
            incr done_id)
          replies
    end
  done;
  t.busy_ns <- t.busy_ns + (Clock.now_ns () - t0)

(* Drive the workload for [calls] client calls (requests on the wire),
   or, with [seconds], for that long. *)
let drive sys g t ?span ?calls ?seconds () =
  let start = Clock.now_ns () in
  let stop =
    match (calls, seconds) with
    | Some c, _ -> fun sent -> sent >= c
    | None, Some s ->
      let until = start + int_of_float (s *. 1e9) in
      fun _ -> Clock.now_ns () >= until
    | None, None -> invalid_arg "drive"
  in
  match sys.w.Wl.kind with
  | Wl.Net_mixed -> net_loop sys ~next:(fun () -> Wl.next g) t ?span ~stop ()
  | Wl.Read_dram | Wl.Churn_wal ->
    let n = ref 0 in
    while not (stop !n) do
      exec_call sys t ?span (Wl.call g);
      incr n
    done

(* Settle published sizes (barrier), then sum them per live key. *)
let bytes_per_key sys g =
  (barrier sys.serve sys.fleet) ();
  float_of_int (Array.fold_left ( + ) 0 (Serve.shard_sizes sys.serve))
  /. float_of_int (Wl.live_keys g)

let conversions sys = Array.fold_left (fun a t -> a + Olc.elastic_conversions t) 0 sys.fleet.trees

(* Quiesced end-of-run check: deep sanitizer pass and key count. *)
let final_check sys g =
  let ix = Shard.index_ops sys.fleet.router in
  let report = Ei_check.Check.run ix in
  if not (Ei_check.Check.ok report) then
    Some (Format.asprintf "%a" Ei_check.Check.pp_report report)
  else
    let n = Shard.count sys.fleet.router in
    if n <> Wl.live_keys g then
      Some (Printf.sprintf "key count %d, shadow model expects %d" n (Wl.live_keys g))
    else None
