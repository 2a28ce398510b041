(* Figure 7 (parallel): domain scaling of the BTreeOLC variants behind
   the sharded serving layer.

   Where Fig 7b/7c hammer one shared OLC tree from N domains, this
   driver gives each domain its own shard of the key space — the
   domain-per-shard layout of {!Ei_shard.Serve} — and reports aggregate
   read and insert throughput at 1/2/4/8 shard domains plus index
   memory after the load.  The elastic variant additionally runs the
   global memory coordinator over the fleet. *)

open Bench_util
module Table = Ei_storage.Table
module Ycsb = Ei_workload.Ycsb
module Olc = Ei_olc.Btree_olc
module Serve = Ei_shard.Serve
module Fleet = Ei_shard.Fleet
module Rng = Ei_util.Rng

(* Label, part kind, and whether the coordinator runs. *)
let kinds ~record_count =
  [
    ("olc", Fleet.Olc Olc.Olc_std, false);
    ( "olc-seqtree",
      Fleet.Olc (Olc.Olc_seqtree { capacity = 128; levels = 2; breathing = 4 }),
      false );
    ("olc-elastic", Fleet.Elastic (record_count * 27 * 6 / 10), true);
  ]

type cell = {
  read : float;
  insert : float;
  bytes : int;
  read_q : (int * int * int) option;
  insert_q : (int * int * int) option;
      (* per-phase batch-latency quantiles, captured at run time (the
         shared histogram is reset between phases and cells) *)
}

let run_cell ~part ~coordinator ~shards ~record_count ~ops =
  let fleet = Fleet.start { Fleet.default with shards; part; coordinator } in
  let serve = fleet.Fleet.serve in
  let tids =
    Array.init record_count (fun seq -> Table.append fleet.Fleet.table (Ycsb.key_of_seq seq))
  in
  let load_ops =
    Array.init record_count (fun seq ->
        Serve.Insert (Ycsb.key_of_seq seq, tids.(seq)))
  in
  let shed = ref 0 in
  begin_phase Fig6_par.h_batch;
  let insert =
    mops record_count (fun () ->
        shed := !shed + Fleet.exec fleet load_ops)
  in
  let insert_q = phase_quantiles Fig6_par.h_batch in
  let rng = domain_rng 0 in
  let read_ops =
    Array.init ops (fun _ ->
        Serve.Find (Ycsb.key_of_seq (Rng.int rng record_count)))
  in
  begin_phase Fig6_par.h_batch;
  let read =
    mops ops (fun () -> shed := !shed + Fleet.exec fleet read_ops)
  in
  let read_q = phase_quantiles Fig6_par.h_batch in
  Serve.rebalance_now serve;
  let bytes = Fig6_par.aggregate_bytes serve in
  Serve.stop serve;
  Fig6_par.warn_shed (Printf.sprintf "%d shards" shards) !shed;
  { read; insert; bytes; read_q; insert_q }

let run () =
  header "Figure 7 (parallel): shard-domain scaling of BTreeOLC variants";
  let record_count = scaled 100_000 in
  let ops = scaled 200_000 in
  pf "load = %d records; %d reads per cell\n" record_count ops;
  let kinds = kinds ~record_count in
  let shard_counts = Fig6_par.shard_counts in
  let cells =
    List.map
      (fun (label, part, coordinator) ->
        ( label,
          List.map
            (fun shards ->
              (shards, run_cell ~part ~coordinator ~shards ~record_count ~ops))
            shard_counts ))
      kinds
  in
  let table phase pick =
    subheader
      (Printf.sprintf "7%s-par: %s over shard domains (total Mops)"
         (if String.equal phase "read" then "b" else "c")
         phase);
    print_row ("index" :: List.map string_of_int shard_counts);
    List.iter
      (fun (label, row) ->
        print_row (label :: List.map (fun (_, c) -> f3 (pick c)) row))
      cells
  in
  table "read" (fun c -> c.read);
  table "insert" (fun c -> c.insert);
  subheader "7a-par: aggregate index memory after load (MB)";
  print_row ("index" :: List.map string_of_int shard_counts);
  List.iter
    (fun (label, row) ->
      print_row (label :: List.map (fun (_, c) -> mb c.bytes) row))
    cells;
  List.iter
    (fun (label, row) ->
      List.iter
        (fun (shards, c) ->
          let cell phase m q =
            emit_mops_q ?quantiles:q ~name:"fig7_par"
              ~params:
                [
                  ("index", label);
                  ("shards", string_of_int shards);
                  ("phase", phase);
                ]
              ~mops:m ~bytes:c.bytes ()
          in
          cell "read" c.read c.read_q;
          cell "insert" c.insert c.insert_q)
        row)
    cells;
  pf
    "expected shapes: olc above olc-seqtree, olc-elastic between the two;\n\
     aggregate memory flat in the shard count (same records, split)\n";
  pf
    "note: this machine reports %d core(s); with a single core the shard\n\
     domains timeshare it and aggregate throughput stays flat\n%!"
    (Domain.recommended_domain_count ())
