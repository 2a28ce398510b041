(* The repository's benchmark.

     ei_bench.exe --workload W --seed N --seconds S --trace 0|1
     ei_bench.exe --workload W --seed N --selftest

   --trace 0 sets the workload's system up, warms it, drives it for S
   seconds, sets it up again a few times for setup_s and prints the
   end-to-end metrics; --trace 1 runs the traced ladder and prints the
   per-layer metrics.  Either way
   every reply is checked against the shadow model, the quiesced fleet
   is deep-checked, and the last stdout line is one JSON object.
   --selftest runs the same seed twice and another seed once on a fixed
   number of calls and compares the op-stream digest and count metrics. *)

module Serve = Ei_shard.Serve
module Olc = Ei_olc.Btree_olc

let metric_json (name, value, unit) =
  let v = if Float.is_finite value then value else 0. in
  Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "  %-30s %16.4f %s\n" n v u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric_json metrics))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* A failed check keeps the run going to its report, marked incorrect. *)
let problems = ref []
let problem msg =
  note "CHECK FAILED: %s" msg;
  problems := msg :: !problems

let check_tally what (t : Fleet.tally) =
  Option.iter (fun m -> problem (Printf.sprintf "%s: %s" what m)) t.Fleet.first_bad

let finish sys g =
  Fleet.stop sys;
  Option.iter problem (Fleet.final_check sys g);
  Fleet.discard sys

let log_bytes_per_write sys (written : int) =
  match sys.Fleet.wal_dir with
  | Some dir -> float_of_int (Fleet.dir_bytes dir) /. float_of_int written
  | None -> 0.

let bound_use sys =
  let f g = Array.fold_left (fun a t -> a + g t) 0 sys.Fleet.fleet.Fleet.trees in
  float_of_int (f Olc.elastic_memory_bytes) /. float_of_int (f Olc.elastic_size_bound)

let compact_leaf_share sys =
  let leaves =
    Array.fold_left
      (fun a t -> Olc.fold_leaves t (fun a ~compact:_ ~capacity:_ ~count:_ ~bytes:_ -> a + 1) a)
      0 sys.Fleet.fleet.Fleet.trees
  in
  let compact = Array.fold_left (fun a t -> a + Olc.elastic_compact_leaves t) 0 sys.Fleet.fleet.Fleet.trees in
  float_of_int compact /. float_of_int leaves

let warm_up sys g (w : Wl.t) =
  let t = Fleet.tally () in
  Fleet.drive sys g t ~calls:w.Wl.warmup ();
  check_tally "warm-up" t;
  Gc.compact ();
  t

(* --- End-to-end run ------------------------------------------------------ *)

(* The measured system is set up first, on a fresh heap (OCaml 5.1 does
   not compact, so a fleet built after discarded ones would be scattered
   over their freed memory); the remaining set-ups, timed only for
   setup_s, come after the timed phase and after rss_mb is read. *)
let end_to_end (w : Wl.t) ~seed ~seconds =
  let timed_setup () =
    Gc.compact ();
    let t0 = Clock.now_ns () in
    let sys, untimed = Fleet.setup w in
    (sys, (float_of_int (Clock.now_ns () - t0) /. 1e9) -. untimed)
  in
  let sys, first = timed_setup () in
  let g = Wl.create w ~seed in
  (* Made before the warm-up's compaction, which also settles the GC's
     accounting of the tally's sample storage. *)
  let t = Fleet.tally () in
  ignore (warm_up sys g w);
  Fleet.drive sys g t ~seconds ();
  check_tally "timed phase" t;
  let bpk = Fleet.bytes_per_key sys g in
  let rss = Fleet.rss_mb () in
  finish sys g;
  let setup_times =
    first
    :: List.init (w.Wl.setups - 1) (fun _ ->
           let sys, dt = timed_setup () in
           Fleet.stop sys;
           Fleet.discard sys;
           dt)
  in
  let attempted = t.Fleet.attempted in
  let failed = attempted - t.Fleet.ok in
  (* Medians over five slices of the timed phase: a burst of stalls in
     one slice does not decide the figure.  The tail reported is p90, not
     p99: on a 2-vCPU guest, p99 swung by 25-70 % between identical runs
     with the host's load, p90 by about half as much. *)
  let win = Fleet.windows t ~k:5 in
  let med f = median (List.map f win) in
  print_result ~correct:(!problems = [] && failed = 0) ~attempted ~failed
    [
      ("ops_per_s", med (fun (r, _, _) -> r), "1/s");
      ("lat_p50_us", med (fun (_, p, _) -> float_of_int p /. 1e3), "us");
      ("lat_p90_us", med (fun (_, _, p) -> float_of_int p /. 1e3), "us");
      ("ok_share", float_of_int t.Fleet.ok /. float_of_int (max 1 attempted), "share");
      ("bytes_per_key", bpk, "B");
      ("rss_mb", rss, "MiB");
      ("setup_s", median setup_times, "s");
    ]

(* --- Traced ladder run --------------------------------------------------- *)

(* One rung of the ladder and what it has measured so far.  Its ns/op is
   the median over its blocks, so a lump that lands in a few blocks (a
   WAL checkpoint, a major GC slice) does not decide a rung's figure. *)
type rung = {
  name : string;
  run : Wl.op array array -> int * int;  (** a block -> wall ns, wrong answers *)
  mutable per_op : float list;  (** ns/op of each block *)
  mutable ops : int;
}

let traced (w : Wl.t) ~seed ~seconds =
  let module S = Clock.Spans in
  S.enabled := true;
  let root = S.start "run" in
  S.ambient := root;
  let sys, _ = S.with_span "setup" (fun _ -> Fleet.setup w) in
  let fleet = sys.Fleet.fleet in
  let g = Wl.create w ~seed in
  let warm = warm_up sys g w in
  let lbpw =
    log_bytes_per_write sys ((if w.Wl.kind = Wl.Churn_wal then w.Wl.keys else 0) + warm.Fleet.writes)
  in
  let conv0 = Fleet.conversions sys in
  let pool = Ladder.Pool.create (w.Wl.shards - 1) in
  (* Rungs that bypass the client's or the server's own row appends get
     the block's rows appended untimed first. *)
  let with_rows f block =
    Array.iter (fun call -> Ladder.append_rows fleet (Ladder.row_ops w [| call |])) block;
    f block
  in
  let level l = with_rows (fun b -> Ladder.run_level pool fleet l b) in
  let exec_lat = ref 0 and exec_calls = ref 0 and subs = ref 0 in
  (* The Serve rung makes the client's coordinator passes too. *)
  let serve_calls = ref 0 in
  let serve_rung =
    with_rows (fun b ->
        let b0 = Serve.batches sys.Fleet.serve in
        let ns, bad, lat =
          Ladder.run_serve sys.Fleet.serve b ~after_call:(fun () ->
              incr serve_calls;
              if !serve_calls mod Wl.rebalance_every = 0 then sys.Fleet.rebalance ())
        in
        exec_lat := !exec_lat + lat;
        exec_calls := !exec_calls + Array.length b;
        subs := !subs + (Serve.batches sys.Fleet.serve - b0);
        (ns, bad))
  in
  let client ~span =
    let t = Fleet.tally () in
    fun block ->
      let ns0 = t.Fleet.busy_ns and ok0 = t.Fleet.ok and n0 = t.Fleet.attempted in
      (match w.Wl.kind with
      | Wl.Net_mixed ->
        let flat = Array.concat (Array.to_list block) in
        let i = ref 0 in
        Fleet.net_loop sys
          ~next:(fun () ->
            let op = flat.(!i) in
            incr i;
            op)
          t ~span
          ~stop:(fun sent -> sent >= Array.length flat)
          ()
      | Wl.Read_dram | Wl.Churn_wal -> Array.iter (Fleet.exec_call sys t ~span) block);
      check_tally (if span then "traced client" else "client") t;
      (t.Fleet.busy_ns - ns0, t.Fleet.attempted - n0 - (t.Fleet.ok - ok0))
  in
  let olc_acc = Ladder.olc_acc () in
  let olc_timed =
    with_rows (fun b ->
        let t0 = Clock.now_ns () in
        Ladder.olc_block olc_acc fleet b;
        (Clock.now_ns () - t0, 0))
  in
  let mk name run = { name; run; per_op = []; ops = 0 } in
  let top_name = match w.Wl.kind with Wl.Net_mixed -> "net" | _ -> "e2e" in
  let rungs =
    [|
      mk "olc" (level Ladder.L_olc);
      mk "index_ops" (level Ladder.L_part);
      mk "shard" (level Ladder.L_router);
      mk "serve" serve_rung;
      mk top_name (client ~span:false);
      mk (top_name ^ ".traced") (client ~span:true);
      mk "olc.timed" olc_timed;
    |]
  in
  let rng = Ei_util.Rng.stream seed 11 in
  (* Calls per block: enough blocks per rung for a steady median, and on
     the wire enough requests that filling and draining the window is a
     small part of a block. *)
  let block = match w.Wl.kind with Wl.Net_mixed -> 16 | Wl.Read_dram | Wl.Churn_wal -> 4 in
  let bad = ref 0 and applied = ref 0 in
  let ladder = S.start "ladder" in
  let until = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  while Clock.now_ns () < until do
    let order = Array.copy rungs in
    Ei_util.Rng.shuffle rng order;
    Array.iter
      (fun r ->
        let b = Array.init block (fun _ -> Wl.call g) in
        let id = S.start ~parent:ladder ("rung." ^ r.name) in
        S.ambient := id;
        let ns, wrong = r.run b in
        S.ambient := root;
        S.stop id;
        let n = Ladder.ops_in b in
        r.per_op <- (float_of_int ns /. float_of_int n) :: r.per_op;
        r.ops <- r.ops + n;
        applied := !applied + n;
        bad := !bad + wrong)
      order
  done;
  S.stop ladder;
  let ns_per name =
    match Array.find_opt (fun r -> String.equal r.name name) rungs with
    | Some r when r.ops > 0 -> median r.per_op
    | Some _ | None -> 0.
  in
  let conv_per_kop = float_of_int (Fleet.conversions sys - conv0) /. (float_of_int !applied /. 1e3) in
  let bound_use = bound_use sys in
  Ladder.Pool.stop pool;
  (* Standalone rungs over the next stretch of the stream, which the
     system itself never applies. *)
  let slice = let g = Wl.copy g in Array.init w.Wl.ladder_calls (fun _ -> Wl.call g) in
  let rows = Ladder.row_ops w slice in
  let append_ns, mark_ns = Ladder.table_costs w rows in
  let wire = S.with_span "rung.wire+session" (fun _ -> Ladder.wire_costs slice) in
  let std_ns, seq_ns = S.with_span "rung.leaf" (fun _ -> Ladder.leaf_costs w ~seed) in
  let rows_per_op =
    float_of_int (Array.length rows) /. float_of_int (Ladder.ops_in slice)
  in
  let counts =
    [
      ("serve.batches", Serve.batches sys.Fleet.serve);
      ("serve.rebalances", Serve.rebalances sys.Fleet.serve);
      ("serve.recoveries", Serve.recoveries sys.Fleet.serve);
      ("elastic.conversions", Fleet.conversions sys);
      ("elastic.compact_leaves",
        Array.fold_left (fun a t -> a + Olc.elastic_compact_leaves t) 0 fleet.Fleet.trees);
      ("ladder.wrong_answers", !bad);
    ]
    @ List.concat_map
        (fun r -> [ ("rung." ^ r.name ^ ".ops", r.ops); ("rung." ^ r.name ^ ".blocks", List.length r.per_op) ])
        (Array.to_list rungs)
  in
  Fleet.stop sys;
  let wal_costs =
    match w.Wl.kind with
    | Wl.Churn_wal -> Some (S.with_span "rung.wal_writer" (fun _ -> Ladder.wal_costs w fleet slice))
    | Wl.Read_dram | Wl.Net_mixed -> None
  in
  let cls = compact_leaf_share sys in
  Option.iter problem (Fleet.final_check sys g);
  Fleet.discard sys;
  S.stop root;
  let dump = Filename.concat Fleet.run_dir (Printf.sprintf "spans-%s-seed%d.json" w.Wl.name seed) in
  S.dump dump ~counts;
  note "spans: %d written to %s" (S.recorded ()) dump;
  if !bad > 0 then problem (Printf.sprintf "%d ladder replies differ from the shadow model" !bad);
  let e2e_ns = ns_per top_name in
  let serve_ns = ns_per "serve" in
  let sum_ns =
    match w.Wl.kind with
    | Wl.Read_dram -> serve_ns
    | Wl.Churn_wal -> serve_ns +. (append_ns *. rows_per_op)
    | Wl.Net_mixed -> e2e_ns
  in
  let socket_ns =
    match w.Wl.kind with
    | Wl.Net_mixed ->
      e2e_ns -. serve_ns -. wire.Ladder.session -. wire.Ladder.req_enc -. wire.Ladder.rep_dec
      -. (append_ns *. rows_per_op)
    | Wl.Read_dram | Wl.Churn_wal -> 0.
  in
  let costs = Ladder.olc_costs olc_acc in
  let wal_metric f = match wal_costs with Some c -> f c | None -> 0. in
  let calls = float_of_int (max 1 !exec_calls) in
  print_result ~correct:(!problems = []) ~attempted:!applied ~failed:!bad
    [
      ("leaf.std_find_ns", std_ns, "ns");
      ("leaf.seqtree_find_ns", seq_ns, "ns");
      ("olc.find_ns", costs.Ladder.find_ns, "ns");
      ("olc.multi_find_ns_per_key", costs.Ladder.multi_ns_per_key, "ns");
      ("olc.scan_ns_per_entry", costs.Ladder.scan_ns_per_entry, "ns");
      ("olc.insert_ns", costs.Ladder.insert_ns, "ns");
      ("olc.remove_ns", costs.Ladder.remove_ns, "ns");
      ("olc.rung_ns_per_op", ns_per "olc", "ns");
      ("elastic.compact_leaf_share", cls, "share");
      ("elastic.conversions_per_kop", conv_per_kop, "count");
      ("elastic.bound_use", bound_use, "share");
      ("index_ops.wrap_ns", ns_per "index_ops" -. ns_per "olc", "ns");
      ("shard.route_ns", ns_per "shard" -. ns_per "index_ops", "ns");
      ("serve.hop_ns_per_op", serve_ns -. ns_per "shard", "ns");
      ("serve.exec_us", float_of_int !exec_lat /. calls /. 1e3, "us");
      ("serve.subs_per_exec", float_of_int !subs /. calls, "count");
      ("table.append_ns", append_ns, "ns");
      ("table.mark_live_ns", mark_ns, "ns");
      ("frame.encode_ns", wal_metric (fun c -> c.Ladder.encode_ns), "ns");
      ("wal.commit_us", wal_metric (fun c -> c.Ladder.commit_us), "us");
      ("wal.bytes_per_record", wal_metric (fun c -> c.Ladder.bytes_per_record), "B");
      ("wal.checkpoints", wal_metric (fun c -> float_of_int c.Ladder.checkpoints), "count");
      ("wal.recover_ns_per_row", wal_metric (fun c -> c.Ladder.recover_ns_per_row), "ns");
      ("log_bytes_per_write", lbpw, "B");
      ("wire.request_rt_ns", wire.Ladder.req_enc +. wire.Ladder.req_dec, "ns");
      ("wire.reply_rt_ns", wire.Ladder.rep_enc +. wire.Ladder.rep_dec, "ns");
      ("session.ns_per_request", wire.Ladder.session, "ns");
      ("net.socket_ns_per_request", socket_ns, "ns");
      ("trace.overhead_share", 1. -. (e2e_ns /. ns_per (top_name ^ ".traced")), "share");
      ("ladder.e2e_ns_per_op", e2e_ns, "ns");
      ("ladder.sum_ns_per_op", sum_ns, "ns");
      ("ladder.unattributed_share", (e2e_ns -. sum_ns) /. e2e_ns, "share");
    ]

(* --- Equal-seed self-test -------------------------------------------------- *)

let selftest (w : Wl.t) ~seed =
  let calls = match w.Wl.kind with Wl.Net_mixed -> 20_000 | _ -> 200 in
  let one seed =
    let sys, _ = Fleet.setup w in
    let g = Wl.create w ~seed in
    let warm = warm_up sys g w in
    let c0 = Fleet.conversions sys in
    let t = Fleet.tally () in
    Fleet.drive sys g t ~calls ();
    check_tally "self-test" t;
    let bpk = Fleet.bytes_per_key sys g in
    let written = (if w.Wl.kind = Wl.Churn_wal then w.Wl.keys else 0) + warm.Fleet.writes + t.Fleet.writes in
    let lbpw = log_bytes_per_write sys written in
    let cpk = float_of_int (Fleet.conversions sys - c0) /. (float_of_int t.Fleet.attempted /. 1e3) in
    finish sys g;
    Gc.compact ();
    note "seed %d: digest %x, bytes_per_key %.17g, log_bytes_per_write %.17g, conversions_per_kop %.17g"
      seed g.Wl.digest bpk lbpw cpk;
    (g.Wl.digest, bpk, lbpw, cpk, t.Fleet.attempted)
  in
  let d1, b1, l1, c1, n1 = one seed in
  let d2, b2, l2, c2, n2 = one seed in
  let d3, _, _, _, n3 = one (seed + 1) in
  let same = d1 = d2 && Float.equal b1 b2 && Float.equal l1 l2 && Float.equal c1 c2 in
  if not same then problem "equal seeds gave different digests or count metrics";
  if d1 = d3 then problem "a different seed gave the same op-stream digest";
  Printf.printf "{\"selftest\": \"%s\", \"workload\": \"%s\", \"passed\": %b, \"ops\": %d}\n%!"
    "equal-seed" w.Wl.name (!problems = []) (n1 + n2 + n3)

(* --- Command line --------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME read-dram | churn-wal | net-mixed");
      ("--seed", Arg.Set_int seed, "N op-stream seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced ladder's per-layer metrics");
      ("--selftest", Arg.Set self, " equal-seed determinism self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ei_bench.exe --workload W --seed N --seconds S --trace 0|1";
  match Wl.find !workload with
  | None ->
    note "unknown workload %S" !workload;
    exit 2
  | Some w ->
    Option.iter (fun o -> Gc.set { (Gc.get ()) with Gc.space_overhead = o }) w.Wl.space_overhead;
    (try Unix.mkdir Fleet.run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    (* Ei_wal.Crc32 builds its table in a [lazy] on first use.  Two
       domains forcing it at once (two shard WAL writers committing their
       first batch together) raise CamlinternalLazy.Undefined and kill a
       shard domain, so build it here, before any domain starts. *)
    ignore (Ei_wal.Crc32.string "");
    let seconds = float_of_int (max 1 !seconds) in
    if !self then selftest w ~seed:!seed
    else if !trace = 1 then traced w ~seed:!seed ~seconds
    else end_to_end w ~seed:!seed ~seconds;
    if !problems <> [] then exit 1
