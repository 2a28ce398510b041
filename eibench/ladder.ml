(* The traced ladder: the workload's op stream driven through each
   layer's public functions in turn, lowest first.  Blocks of client
   calls go to the rungs in a seeded random order, round after round, on
   one shared system, so drift in its state falls on every rung alike.
   Each block is the next stretch of the stream: replaying one block at
   every rung would find its keys' nodes already in cache after the
   first.  A layer's self time is the difference between adjacent rungs'
   ns/op.  Rungs below Serve run one domain per shard, as Serve does, so
   adjacent rungs have the same parallelism and their times subtract. *)

module Table = Ei_storage.Table
module Olc = Ei_olc.Btree_olc
module Index_ops = Ei_harness.Index_ops
module Shard = Ei_shard.Shard
module Serve = Ei_shard.Serve
module Wal = Ei_wal.Wal
module Frame = Ei_wal.Frame
module Wire = Ei_net.Wire
module Key = Ei_util.Key

type slice = Wl.op array array  (* client calls of [w.batch] ops *)

let ops_in (s : slice) = Array.fold_left (fun a c -> a + Array.length c) 0 s

(* --- Rows --------------------------------------------------------------- *)

(* The rows the slice's inserts (and, on the wire, updates) point at,
   appended up front by rungs that bypass the client's or server's own
   appends; the row ids match the ones the shadow model predicted. *)
let append_rows (fleet : Fleet.fleet) (rows : Wl.op array) =
  Array.iter
    (fun (op : Wl.op) ->
      if Table.append fleet.Fleet.table op.Wl.key <> op.Wl.tid then
        failwith "ladder: row ids out of step")
    rows

let row_ops (w : Wl.t) (s : slice) =
  let net = w.Wl.kind = Wl.Net_mixed in
  Array.concat (Array.to_list s)
  |> Array.to_list
  |> List.filter (fun (op : Wl.op) -> op.Wl.tag = Wl.Insert || (net && op.Wl.tag = Wl.Update))
  |> Array.of_list

(* --- Rungs below Serve ------------------------------------------------ *)

type level = L_olc | L_part | L_router

(* Sink for scanned key bytes, as Index_ops.scan keeps one: the olc rung
   touches each visited key like the index_ops rung above it. *)
let checksum = ref 0

(* Ops of one call owned by each shard, in call order. *)
let partition (fleet : Fleet.fleet) (s : slice) =
  let shards = Array.length fleet.Fleet.parts in
  Array.map
    (fun call ->
      let owned = Array.make shards [] in
      for j = Array.length call - 1 downto 0 do
        let sh = Shard.shard_of_key fleet.Fleet.router call.(j).Wl.key in
        owned.(sh) <- j :: owned.(sh)
      done;
      Array.map Array.of_list owned)
    s

let sort_run (keys : string array) =
  let tagged = Array.mapi (fun x k -> (Key.sort_prefix k, x)) keys in
  Array.stable_sort
    (fun ((pa : int), a) ((pb : int), b) ->
      if pa = pb then Key.compare_fast keys.(a) keys.(b) else Int.compare pa pb)
    tagged;
  tagged

(* Apply one shard's share of one call at [level], grouping runs of
   consecutive finds into one sorted multi_find exactly as a Serve shard
   domain does. *)
let apply_sub (fleet : Fleet.fleet) rix level sh (call : Wl.op array) res idx =
  let trees = fleet.Fleet.trees and parts = fleet.Fleet.parts in
  let shards = Array.length parts in
  let scan_from k n =
    let c = ref 0 and s = ref sh in
    while !c < n && !s < shards do
      (c :=
         !c
         +
         match level with
         | L_olc ->
           Olc.fold_range trees.(!s) ~start:k ~n:(n - !c)
             (fun acc k _ ->
               checksum := !checksum lxor Char.code (String.unsafe_get k 0);
               acc + 1)
             0
         | L_part | L_router -> parts.(!s).Index_ops.scan k (n - !c));
      incr s
    done;
    !c
  in
  let b x = if x then 1 else 0 in
  let one j =
    let op = call.(j) in
    let k = op.Wl.key in
    res.(j) <-
      (match level, op.Wl.tag with
      | L_olc, Wl.Find -> Option.value (Olc.find trees.(sh) k) ~default:(-1)
      | L_part, Wl.Find -> Option.value (parts.(sh).Index_ops.find k) ~default:(-1)
      | L_router, Wl.Find -> Option.value (rix.Index_ops.find k) ~default:(-1)
      | (L_olc | L_part), Wl.Scan -> scan_from k Wl.scan_len
      | L_router, Wl.Scan -> rix.Index_ops.scan k Wl.scan_len
      | L_olc, Wl.Insert -> b (Olc.insert trees.(sh) k op.Wl.tid)
      | L_olc, Wl.Remove -> b (Olc.remove trees.(sh) k)
      | L_olc, Wl.Update -> b (Olc.update trees.(sh) k op.Wl.tid)
      | L_part, Wl.Insert -> b (parts.(sh).Index_ops.insert k op.Wl.tid)
      | L_part, Wl.Remove -> b (parts.(sh).Index_ops.remove k)
      | L_part, Wl.Update -> b (parts.(sh).Index_ops.update k op.Wl.tid)
      | L_router, Wl.Insert -> b (rix.Index_ops.insert k op.Wl.tid)
      | L_router, Wl.Remove -> b (rix.Index_ops.remove k)
      | L_router, Wl.Update -> b (rix.Index_ops.update k op.Wl.tid))
  in
  let run = Array.make (Array.length idx) 0 and rn = ref 0 in
  let flush () =
    if !rn = 1 then one run.(0)
    else if !rn > 1 then begin
      let keys = Array.init !rn (fun x -> call.(run.(x)).Wl.key) in
      let tagged = sort_run keys in
      let sorted = Array.map (fun (_, x) -> keys.(x)) tagged in
      let got =
        match level with
        | L_olc -> Olc.multi_find trees.(sh) sorted
        | L_part -> parts.(sh).Index_ops.multi_find sorted
        | L_router -> rix.Index_ops.multi_find sorted
      in
      Array.iteri
        (fun y (_, x) -> res.(run.(x)) <- Option.value got.(y) ~default:(-1))
        tagged
    end;
    rn := 0
  in
  Array.iter
    (fun j ->
      if call.(j).Wl.tag = Wl.Find then begin
        run.(!rn) <- j;
        incr rn
      end
      else begin
        flush ();
        one j
      end)
    idx;
  flush ()

let new_results (s : slice) = Array.map (fun c -> Array.make (Array.length c) (-2)) s

(* Wrong answers in a rung's results. *)
let mismatches (s : slice) res =
  let bad = ref 0 in
  Array.iteri
    (fun i c -> Array.iteri (fun j (op : Wl.op) -> if res.(i).(j) <> op.Wl.expect then incr bad) c)
    s;
  !bad

(* Persistent worker domains, one per shard beyond the first. *)
module Pool = struct
  type slot = {
    m : Mutex.t;
    c : Condition.t;
    mutable job : (unit -> unit) option;
    mutable failed : exn option;
    mutable quit : bool;
  }

  type t = { slots : slot array; doms : unit Domain.t array }

  let worker s () =
    let rec loop () =
      Mutex.lock s.m;
      while Option.is_none s.job && not s.quit do
        Condition.wait s.c s.m
      done;
      match s.job with
      | None -> Mutex.unlock s.m
      | Some f ->
        Mutex.unlock s.m;
        let e = match f () with () -> None | exception e -> Some e in
        Mutex.lock s.m;
        s.failed <- e;
        s.job <- None;
        Condition.broadcast s.c;
        Mutex.unlock s.m;
        loop ()
    in
    loop ()

  let create n =
    let slots =
      Array.init n (fun _ ->
          { m = Mutex.create (); c = Condition.create (); job = None; failed = None; quit = false })
    in
    { slots; doms = Array.map (fun s -> Domain.spawn (worker s)) slots }

  (* [f 0] on the caller, [f (i + 1)] on worker [i]; returns when all end. *)
  let run t f =
    Array.iteri
      (fun i s ->
        Mutex.lock s.m;
        s.job <- Some (fun () -> f (i + 1));
        Condition.broadcast s.c;
        Mutex.unlock s.m)
      t.slots;
    f 0;
    Array.iter
      (fun s ->
        Mutex.lock s.m;
        while Option.is_some s.job do
          Condition.wait s.c s.m
        done;
        let e = s.failed in
        s.failed <- None;
        Mutex.unlock s.m;
        Option.iter raise e)
      t.slots

  let stop t =
    Array.iter
      (fun s ->
        Mutex.lock s.m;
        s.quit <- true;
        Condition.broadcast s.c;
        Mutex.unlock s.m)
      t.slots;
    Array.iter Domain.join t.doms
end

(* Wall ns of one block at a rung below Serve, and its wrong answers. *)
let run_level pool (fleet : Fleet.fleet) level (s : slice) =
  let parts = partition fleet s in
  let res = new_results s in
  let rix = Shard.index_ops fleet.Fleet.router in
  let t0 = Clock.now_ns () in
  Pool.run pool (fun sh ->
      Array.iteri (fun i call -> apply_sub fleet rix level sh call res.(i) parts.(i).(sh)) s);
  (Clock.now_ns () - t0, mismatches s res)

(* Wall ns of one block through Serve.exec (a span per call, then
   [after_call]), its wrong answers and the summed call latency. *)
let run_serve serve (s : slice) ~after_call =
  let res = new_results s in
  let t0 = Clock.now_ns () in
  let lat = ref 0 in
  Array.iteri
    (fun i call ->
      let c0 = Clock.now_ns () in
      let cid = Clock.Spans.start "serve.exec" in
      let outs = Serve.exec serve (Array.map Wl.to_serve call) in
      Clock.Spans.stop cid;
      lat := !lat + (Clock.now_ns () - c0);
      after_call ();
      Array.iteri (fun j o -> match o with Serve.Applied v -> res.(i).(j) <- v | _ -> ()) outs)
    s;
  (Clock.now_ns () - t0, mismatches s res, !lat)

(* --- Per-operation olc costs ------------------------------------------ *)

(* Serial replay of a block, each op timed on its own; runs of finds are
   timed either as one multi_find or as single finds, alternately, so
   neither finds the other's nodes already in cache.  Sums accumulate in
   [acc] / [cnt] slots: find, multi_find key, scan entry, insert, remove. *)
type olc_acc = { acc : int array; cnt : int array; mutable runs : int }

let olc_acc () = { acc = Array.make 5 0; cnt = Array.make 5 0; runs = 0 }

let olc_block a (fleet : Fleet.fleet) (s : slice) =
  let parts = partition fleet s in
  let trees = fleet.Fleet.trees in
  let add i dt n =
    a.acc.(i) <- a.acc.(i) + dt;
    a.cnt.(i) <- a.cnt.(i) + n
  in
  Array.iteri
    (fun i call ->
      Array.iteri
        (fun sh idx ->
          let tree = trees.(sh) in
          let run = ref [] in
          let flush () =
            (match !run with
            | [] -> ()
            | js ->
              let keys = Array.of_list (List.rev_map (fun j -> call.(j).Wl.key) js) in
              let sorted = Array.map (fun (_, x) -> keys.(x)) (sort_run keys) in
              a.runs <- a.runs + 1;
              if a.runs land 1 = 0 then begin
                let t0 = Clock.now_ns () in
                ignore (Sys.opaque_identity (Olc.multi_find tree sorted));
                add 1 (Clock.now_ns () - t0) (Array.length sorted)
              end
              else
                Array.iter
                  (fun k ->
                    let t0 = Clock.now_ns () in
                    ignore (Sys.opaque_identity (Olc.find tree k));
                    add 0 (Clock.now_ns () - t0) 1)
                  sorted);
            run := []
          in
          Array.iter
            (fun j ->
              let op = call.(j) in
              let k = op.Wl.key in
              match op.Wl.tag with
              | Wl.Find -> run := j :: !run
              | tag -> (
                flush ();
                let t0 = Clock.now_ns () in
                match tag with
                | Wl.Scan ->
                  let n = Olc.fold_range tree ~start:k ~n:Wl.scan_len (fun a _ _ -> a + 1) 0 in
                  add 2 (Clock.now_ns () - t0) n
                | Wl.Insert ->
                  ignore (Olc.insert tree k op.Wl.tid);
                  add 3 (Clock.now_ns () - t0) 1
                | Wl.Remove ->
                  ignore (Olc.remove tree k);
                  add 4 (Clock.now_ns () - t0) 1
                | Wl.Update -> ignore (Olc.update tree k op.Wl.tid)
                | Wl.Find -> ()))
            idx;
          flush ())
        parts.(i))
    s

type olc_costs = {
  find_ns : float;
  multi_ns_per_key : float;
  scan_ns_per_entry : float;
  insert_ns : float;
  remove_ns : float;
}

(* Per-op means, less the clock's own cost where an op was timed alone
   (runs and scans pay one clock read per many keys or entries). *)
let olc_costs a =
  let ck = Lazy.force Clock.overhead_ns in
  let per i ~single =
    if a.cnt.(i) = 0 then 0.
    else
      let c = float_of_int a.cnt.(i) in
      Float.max 0. ((float_of_int a.acc.(i) -. (if single then c *. ck else 0.)) /. c)
  in
  {
    find_ns = per 0 ~single:true;
    multi_ns_per_key = per 1 ~single:false;
    scan_ns_per_entry = per 2 ~single:false;
    insert_ns = per 3 ~single:true;
    remove_ns = per 4 ~single:true;
  }

(* --- Leaves ------------------------------------------------------------ *)

(* Point lookups on one full standard leaf and one full SeqTree leaf
   holding loaded keys of the workload. *)
let leaf_costs (w : Wl.t) ~seed =
  let std_cap = 16 and seq_cap = (Olc.default_elastic_config ~size_bound:1).Olc.max_compact_capacity in
  let table = Table.create ~key_len:8 () in
  let rng = Ei_util.Rng.stream seed 7 in
  let pick n =
    let keys = Array.init n (fun _ -> Ei_workload.Ycsb.key_of_seq (Ei_util.Rng.int rng w.Wl.keys)) in
    let keys = List.sort_uniq String.compare (Array.to_list keys) |> Array.of_list in
    let tids = Array.map (Table.append table) keys in
    (keys, tids)
  in
  let time_finds keys find =
    let order = Array.copy keys in
    Ei_util.Rng.shuffle rng order;
    let reps = 200_000 / Array.length keys in
    let t0 = Clock.now_ns () in
    for _ = 1 to reps do
      Array.iter (fun k -> ignore (Sys.opaque_identity (find k))) order
    done;
    float_of_int (Clock.now_ns () - t0) /. float_of_int (reps * Array.length keys)
  in
  let sk, st = pick std_cap in
  let std = Ei_btree.Std_leaf.of_sorted ~key_len:8 ~capacity:std_cap sk st (Array.length sk) in
  let qk, qt = pick seq_cap in
  let seqt =
    Ei_blindi.Seqtree.of_sorted ~key_len:8 ~capacity:seq_cap ~levels:2 ~breathing:4 qk qt
      (Array.length qk)
  in
  let load = Table.loader table in
  ( time_finds sk (Ei_btree.Std_leaf.find std),
    time_finds qk (Ei_blindi.Seqtree.find seqt ~load) )

(* --- Row table, WAL framing, wire codec, session ----------------------- *)

let per n dt = if n = 0 then 0. else float_of_int dt /. float_of_int n

let table_costs w (rows : Wl.op array) =
  let table = Fleet.loaded_table w in
  let t0 = Clock.now_ns () in
  let tids = Array.map (fun (op : Wl.op) -> Table.append table op.Wl.key) rows in
  let t1 = Clock.now_ns () in
  Array.iter (Table.mark_live table) tids;
  let t2 = Clock.now_ns () in
  (per (Array.length rows) (t1 - t0), per (Array.length rows) (t2 - t1))

let frame_of (op : Wl.op) lsn : Frame.record option =
  match op.Wl.tag with
  | Wl.Insert -> Some (Frame.Insert { lsn; key = op.Wl.key; tid = op.Wl.tid })
  | Wl.Remove -> Some (Frame.Remove { lsn; key = op.Wl.key })
  | Wl.Update -> Some (Frame.Update { lsn; key = op.Wl.key; tid = op.Wl.tid })
  | Wl.Find | Wl.Scan -> None

type wal_costs = {
  encode_ns : float;
  bytes_per_record : float;
  commit_us : float;
  checkpoints : int;
  recover_ns_per_row : float;
}

(* A standalone writer per shard, on its own domain, with the default
   cadences (fsync every commit, a checkpoint every 256), fed that
   shard's mutations of every call and committed once per call, as Serve
   does; [fleet] supplies the parts checkpoints snapshot.  Then recovery
   of each shard's directory into an empty tree. *)
let wal_costs (w : Wl.t) (fleet : Fleet.fleet) (s : slice) =
  let records =
    Array.to_list s |> Array.concat |> Array.to_list
    |> List.filter_map (fun op -> frame_of op 1)
    |> Array.of_list
  in
  let buf = Buffer.create 64 in
  let t0 = Clock.now_ns () in
  Array.iter (fun r -> Buffer.clear buf; Frame.encode_into buf r) records;
  let encode_ns = per (Array.length records) (Clock.now_ns () - t0) in
  let bytes = Array.fold_left (fun a r -> a + String.length (Frame.encode r)) 0 records in
  let parts = partition fleet s in
  let shards = Array.length fleet.Fleet.parts in
  let root = Fleet.fresh_path "wal-rung" in
  Wal.reset_dir root;
  let cfg = { (Wal.default_config ~dir:root) with Wal.fsync_every = 1 } in
  let writer sh () =
    let empty, _ = Fleet.make_fleet w (Table.create ~key_len:8 ()) in
    let wr, _ = Wal.recover cfg ~shard:sh ~part:empty.Fleet.parts.(0) in
    let commit_ns = ref 0 in
    Array.iteri
      (fun i call ->
        Array.iter
          (fun j ->
            let op = call.(j) in
            match op.Wl.tag with
            | Wl.Insert -> Wal.log_insert wr op.Wl.key op.Wl.tid
            | Wl.Remove -> Wal.log_remove wr op.Wl.key
            | Wl.Update -> Wal.log_update wr op.Wl.key op.Wl.tid
            | Wl.Find | Wl.Scan -> ())
          parts.(i).(sh);
        let c0 = Clock.now_ns () in
        Wal.commit wr ~part:fleet.Fleet.parts.(sh);
        commit_ns := !commit_ns + (Clock.now_ns () - c0))
      s;
    Wal.close wr;
    !commit_ns
  in
  let others = List.init (shards - 1) (fun i -> Domain.spawn (writer (i + 1))) in
  let c0 = writer 0 () in
  let commit_total = List.fold_left (fun a d -> a + Domain.join d) c0 others in
  let checkpoints =
    List.fold_left
      (fun a sh ->
        let _, ckpts, _ = Wal.inspect_shard ~dir:root ~shard:sh in
        a + List.fold_left (fun m c -> max m c.Wal.ci_seq) 0 ckpts)
      0 (Wal.shards ~dir:root)
  in
  let rows = ref 0 and rec_ns = ref 0 in
  for sh = 0 to shards - 1 do
    let table = Table.create ~key_len:8 () in
    let empty, _ = Fleet.make_fleet w table in
    let t0 = Clock.now_ns () in
    let wr, r =
      Wal.recover
        ~restore:(fun ~tid ~key -> Table.restore_row table ~tid ~key)
        cfg ~shard:sh ~part:empty.Fleet.parts.(0)
    in
    rec_ns := !rec_ns + (Clock.now_ns () - t0);
    Wal.close wr;
    rows := !rows + r.Wal.r_ckpt_entries + r.Wal.r_replayed
  done;
  Fleet.remove_tree root;
  {
    encode_ns;
    bytes_per_record = per (Array.length records) bytes;
    commit_us = per (Array.length s * shards) commit_total /. 1e3;
    checkpoints;
    recover_ns_per_row = per !rows !rec_ns;
  }

type wire_costs = { req_enc : float; req_dec : float; rep_enc : float; rep_dec : float; session : float }

let wire_costs (s : slice) =
  let ops = Array.concat (Array.to_list s) in
  let n = Array.length ops in
  let reqs = Array.mapi (fun id op -> { Wire.id; op = Wl.to_wire op }) ops in
  let time f =
    let t0 = Clock.now_ns () in
    let v = f () in
    (v, per n (Clock.now_ns () - t0))
  in
  let enc, req_enc = time (fun () -> Array.map Wire.encode_request reqs) in
  let (), req_dec =
    time (fun () ->
        Array.iter
          (fun e ->
            match Wire.decode_request e ~pos:0 with
            | Wire.Done _ -> ()
            | Wire.More | Wire.Corrupt _ -> failwith "wire rung: request did not round-trip")
          enc)
  in
  let replies = Array.mapi (fun rid (op : Wl.op) -> { Wire.rid; status = Wire.Applied op.Wl.expect }) ops in
  let renc, rep_enc = time (fun () -> Array.map Wire.encode_reply replies) in
  let (), rep_dec =
    time (fun () ->
        Array.iter
          (fun e ->
            match Wire.decode_reply e ~pos:0 with
            | Wire.Done _ -> ()
            | Wire.More | Wire.Corrupt _ -> failwith "wire rung: reply did not round-trip")
          renc)
  in
  (* The pure session fed one call's request bytes per read, as the
     server's handler sees them from a client with that window. *)
  let chunks =
    let pos = ref 0 in
    Array.map
      (fun call ->
        let b = Buffer.create 1024 in
        Array.iteri (fun j _ -> Buffer.add_string b enc.(!pos + j)) call;
        pos := !pos + Array.length call;
        Buffer.contents b)
      s
  in
  let (), session =
    time (fun () ->
        let ses = Ei_net.Session.create () in
        Array.iter
          (fun chunk ->
            (match Ei_net.Session.feed ses chunk with
            | Ok () -> ()
            | Error e -> failwith ("session rung: " ^ e));
            let round = Ei_net.Session.take ses in
            Ei_net.Session.complete ses (Array.map (fun _ -> Wire.Applied 1) round);
            ignore (Sys.opaque_identity (Ei_net.Session.out_take ses ~max:max_int)))
          chunks)
  in
  { req_enc; req_dec; rep_enc; rep_dec; session }
