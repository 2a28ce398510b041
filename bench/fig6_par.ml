(* Figure 6 (parallel): sharded YCSB over the domain-per-shard serving
   layer with the global elastic memory coordinator.

   Each shard count builds a fleet of elastic BTreeOLC shards behind
   {!Ei_shard.Serve}: one domain per shard drains a bounded request
   queue, and the coordinator periodically re-splits one global soft
   size bound across the shards from their published sizes.  Phases:
   load (inserts through the queues), uniform point reads, short range
   scans (which continue across shard boundaries), and a YCSB-A-style
   churn mix (50 % reads, 25 % inserts of fresh keys, 25 % removes /
   updates) under which the coordinator must keep the fleet's aggregate
   elastic bytes within the global bound. *)

open Bench_util
module Table = Ei_storage.Table
module Ycsb = Ei_workload.Ycsb
module Shard = Ei_shard.Shard
module Serve = Ei_shard.Serve
module Fleet = Ei_shard.Fleet
module Rng = Ei_util.Rng
module Wal = Ei_wal.Wal

let shard_counts = [ 1; 2; 4; 8 ]

(* EI_WAL=dir runs every fleet durable (so supervised, like every WAL
   fleet): group-commit WAL under dir/shards<N> (reset per fleet), so
   an EI_OBS=1 run's trace shows the full serve → shard → tree → WAL
   commit flow.  Unset = the in-memory configuration EXPERIMENTS.md
   tracks. *)
let wal_base = Sys.getenv_opt "EI_WAL"

let warn_shed name shed =
  if shed > 0 then
    Printf.printf "  (%s: %d operation(s) shed — throughput tainted)\n" name shed

let aggregate_bytes serve = Array.fold_left ( + ) 0 (Serve.shard_sizes serve)

(* Under EI_OBS=1 each phase's batch-execution latencies land in the
   serving layer's [serve.batch_ns] histogram; resetting it per phase
   turns the shared histogram into a per-phase one. *)
let h_batch = Ei_obs.Metrics.histogram "serve.batch_ns"

let run () =
  header "Figure 6 (parallel): sharded YCSB with the global memory coordinator";
  let record_count = scaled 100_000 in
  let ops = scaled 200_000 in
  (* Global soft bound: ~60 % of an unconstrained BTreeOLC for this load
     (the same heuristic as Fig 7's elastic line), split across shards
     by the coordinator. *)
  let global_bound = record_count * 27 * 6 / 10 in
  pf "load = %d records; %d ops per phase; global bound = %s MB\n"
    record_count ops (mb global_bound);
  print_row ~w:11
    [ "shards"; "load"; "read"; "scan"; "churn"; "mem/bound"; "rebal" ];
  List.iter
    (fun shards ->
      let wal =
        Option.map
          (fun base ->
            let dir = Filename.concat base (Printf.sprintf "shards%d" shards) in
            Wal.reset_dir dir;
            Wal.default_config ~dir)
          wal_base
      in
      let fleet =
        Fleet.start
          { Fleet.default with shards; part = Elastic global_bound; coordinator = true; wal }
      in
      let table = fleet.Fleet.table and serve = fleet.Fleet.serve in
      (* Load: pre-append to the shared table, insert through the queues. *)
      let tids =
        Array.init record_count (fun seq -> Table.append table (Ycsb.key_of_seq seq))
      in
      let load_ops =
        Array.init record_count (fun seq ->
            Serve.Insert (Ycsb.key_of_seq seq, tids.(seq)))
      in
      let shed = ref 0 in
      begin_phase h_batch;
      let load_mops =
        mops record_count (fun () -> shed := !shed + Fleet.exec fleet load_ops)
      in
      let load_q = phase_quantiles h_batch in
      phase_capture (Printf.sprintf "load/%d" shards);
      (* Uniform point reads (workload C shape). *)
      let rng = domain_rng 0 in
      let read_ops =
        Array.init ops (fun _ ->
            Serve.Find (Ycsb.key_of_seq (Rng.int rng record_count)))
      in
      begin_phase h_batch;
      let read_mops =
        mops ops (fun () -> shed := !shed + Fleet.exec fleet read_ops)
      in
      let read_q = phase_quantiles h_batch in
      phase_capture (Printf.sprintf "read/%d" shards);
      (* Short scans from uniform starts; a scan landing near the top of
         a shard's range continues into the next shard (workload E
         shape).  Throughput is entries visited per second. *)
      let scan_len = 50 in
      let nscan = max 1 (ops / scan_len) in
      let scan_ops =
        Array.init nscan (fun _ ->
            Serve.Scan (Ycsb.key_of_seq (Rng.int rng record_count), scan_len))
      in
      begin_phase h_batch;
      let scan_mops =
        mops (nscan * scan_len) (fun () ->
            shed := !shed + Fleet.exec fleet scan_ops)
      in
      let scan_q = phase_quantiles h_batch in
      phase_capture (Printf.sprintf "scan/%d" shards);
      (* Churn: 50 % reads, 25 % inserts of fresh keys, 25 % removes of
         the oldest fresh key (falling back to updates before any fresh
         insert has landed), so the record count stays near constant
         while allocation pressure keeps the elastic machinery and the
         coordinator busy. *)
      let fresh_cap = (ops / 4) + 1 in
      let fresh_keys =
        Array.init fresh_cap (fun i -> Ycsb.key_of_seq (record_count + i))
      in
      let fresh_tids = Array.map (Table.append table) fresh_keys in
      let next_ins = ref 0 and next_rem = ref 0 in
      let churn_ops =
        Array.init ops (fun _ ->
            let r = Rng.int rng 4 in
            if r < 2 then
              Serve.Find (Ycsb.key_of_seq (Rng.int rng record_count))
            else if r = 2 && !next_ins < fresh_cap then begin
              let i = !next_ins in
              incr next_ins;
              Serve.Insert (fresh_keys.(i), fresh_tids.(i))
            end
            else if !next_rem < !next_ins then begin
              let i = !next_rem in
              incr next_rem;
              Serve.Remove fresh_keys.(i)
            end
            else begin
              (* In-place update: the new tid must reference a row
                 holding the same key bytes (compact leaves load keys
                 through the tid). *)
              let s = Rng.int rng record_count in
              Serve.Update (Ycsb.key_of_seq s, tids.(s))
            end)
      in
      begin_phase h_batch;
      let churn_mops =
        mops ops (fun () -> shed := !shed + Fleet.exec fleet churn_ops)
      in
      let churn_q = phase_quantiles h_batch in
      phase_capture (Printf.sprintf "churn/%d" shards);
      (* Bound check: after one final coordinator pass the aggregate
         tracked bytes must respect the global soft bound (+10 %
         tolerance for in-flight splits). *)
      Serve.rebalance_now serve;
      let agg = aggregate_bytes serve in
      let ratio = float_of_int agg /. float_of_int global_bound in
      let rebal = Serve.rebalances serve in
      Serve.stop serve;
      warn_shed (Printf.sprintf "%d shards" shards) !shed;
      let expect = record_count + !next_ins - !next_rem in
      let got = Shard.count fleet.Fleet.router in
      if got <> expect then
        pf "WARNING: count mismatch after churn: expected %d, got %d\n"
          expect got;
      if Float.compare ratio 1.1 > 0 then
        pf "WARNING: aggregate %s MB exceeds bound %s MB by >10%%\n"
          (mb agg) (mb global_bound);
      print_row ~w:11
        [
          string_of_int shards;
          f3 load_mops;
          f3 read_mops;
          f3 scan_mops;
          f3 churn_mops;
          f2 ratio;
          string_of_int rebal;
        ];
      let cell phase m q =
        emit_mops_q ?quantiles:q ~name:"fig6_par"
          ~params:
            [
              ("index", "olc-elastic");
              ("shards", string_of_int shards);
              ("phase", phase);
            ]
          ~mops:m ~bytes:agg ()
      in
      cell "load" load_mops load_q;
      cell "read" read_mops read_q;
      cell "scan" scan_mops scan_q;
      cell "churn" churn_mops churn_q)
    shard_counts;
  pf
    "expected shapes: throughput grows with shards up to the core count;\n\
     mem/bound stays <= 1.1 at every shard count (the coordinator keeps\n\
     the fleet inside the global soft bound)\n";
  pf
    "note: this machine reports %d core(s); with a single core the shard\n\
     domains timeshare it and aggregate throughput stays flat\n%!"
    (Domain.recommended_domain_count ());
  (* EI_OBS=1 artifacts: the causal trace (one client op renders as a
     serve → shard → tree → WAL flow in Perfetto when EI_WAL is also
     set) and the timeline frame ring cut at the phase boundaries
     above. *)
  if obs_enabled then begin
    Ei_obs.Trace.write_json "fig6_par.trace.json";
    Ei_obs.Timeline.write_jsonl "fig6_par.timeline.jsonl";
    pf "wrote fig6_par.trace.json (%d events) and fig6_par.timeline.jsonl\n%!"
      (Ei_obs.Trace.events ())
  end
