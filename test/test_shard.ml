(* Multi-domain churn tests for the sharded serving layer (ei_shard).

   a. Four domains hammer one elastic BTreeOLC directly — disjoint key
      ranges, interleaved find/update/remove-reinsert churn under a
      size bound tight enough to force compaction — ending with the
      deep Ei_check OLC validator (which reconciles the shared atomic
      byte accounting against a recomputed walk) and an exact count
      reconciliation.

   b. A 4-shard elastic fleet behind Serve with the global memory
      coordinator, churned by two concurrent producer domains (4 shard
      domains + coordinator + 2 producers), ending with Check.run
      recursing into every shard plus total-count and total-bytes
      reconciliation and the global-bound check. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng
module Table = Ei_storage.Table
module Olc = Ei_olc.Btree_olc
module Shard = Ei_shard.Shard
module Serve = Ei_shard.Serve
module Fleet = Ei_shard.Fleet
module Ycsb = Ei_workload.Ycsb
module Check = Ei_check.Check

let domains = 4

(* All churn streams derive from EI_SEED (default 42) so a CI failure
   reproduces with: EI_SEED=n dune exec test/test_shard.exe *)
let seed = Rng.env_seed ~default:42

let fail_on_errors label findings =
  match
    List.filter
      (fun (f : Check.finding) -> f.Check.severity = Check.Error)
      findings
  with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "%s: %s" label (Format.asprintf "%a" Check.pp_finding f)

let safe_loader table =
  Olc.safe_loader ~key_len:8
    ~table_length:(fun () -> Table.length table)
    ~load:(Table.loader table)

(* --- a. direct multi-domain churn on one elastic OLC tree ------------ *)

let test_olc_churn () =
  let table = Table.create ~key_len:8 () in
  let n_per = 4_000 in
  let total = domains * n_per in
  (* ~20 B/key is below the standard tree's footprint, so the tree must
     shrink (compact leaves) while the domains churn. *)
  let bound = total * 20 in
  let tree =
    Olc.create
      ~kind:(Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:bound))
      ~key_len:8 ~load:(safe_loader table) ()
  in
  (* Disjoint per-domain key ranges (domain tag in the high bits), all
     pre-appended so updates always carry a tid of the same key. *)
  let keys =
    Array.init domains (fun d ->
        Array.init n_per (fun i -> Key.of_int ((d lsl 40) lor i)))
  in
  let tids = Array.map (Array.map (Table.append table)) keys in
  let worker d () =
    let rng = Rng.stream seed d in
    let ks = keys.(d) and ts = tids.(d) in
    for i = 0 to n_per - 1 do
      ignore (Olc.insert tree ks.(i) ts.(i));
      match Rng.int rng 4 with
      | 0 -> ignore (Olc.find tree ks.(Rng.int rng (i + 1)))
      | 1 ->
        let j = Rng.int rng (i + 1) in
        ignore (Olc.update tree ks.(j) ts.(j))
      | 2 when i > 0 ->
        (* Remove and reinsert an earlier own key: churns the leaves
           while keeping the final count deterministic. *)
        let j = Rng.int rng i in
        if Olc.remove tree ks.(j) then ignore (Olc.insert tree ks.(j) ts.(j))
      | _ -> ()
    done;
    (* Drop the top quarter for good. *)
    for i = 3 * n_per / 4 to n_per - 1 do
      ignore (Olc.remove tree ks.(i))
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  Alcotest.(check int) "count reconciles"
    (domains * (3 * n_per / 4))
    (Olc.count tree);
  Alcotest.(check bool) "tree shrank under the bound" true
    (Olc.elastic_compact_leaves tree > 0);
  fail_on_errors "olc validator" (Check.check_olc tree)

(* --- b. sharded fleet behind Serve with the coordinator -------------- *)

let test_serve_churn () =
  let shards = 4 in
  let n = 16_000 in
  let bound = n * 20 in
  (* No periodic coordinator domain: rebalances are driven explicitly
     below, so the pass count is exact instead of timing-dependent. *)
  let fleet = Fleet.start { Fleet.default with shards; part = Elastic bound } in
  let table = fleet.Fleet.table and router = fleet.Fleet.router in
  let serve = fleet.Fleet.serve in
  let keys = Array.init n (fun i -> Ycsb.key_of_seq i) in
  let tids = Array.map (Table.append table) keys in
  let producers = 2 in
  let per = n / producers in
  let producer p () =
    let base = p * per in
    let batch a = ignore (Serve.exec serve a) in
    (* Load this producer's half in sub-batches. *)
    let step = 256 in
    let i = ref 0 in
    while !i < per do
      let len = min step (per - !i) in
      batch
        (Array.init len (fun j ->
             let s = base + !i + j in
             Serve.Insert (keys.(s), tids.(s))));
      i := !i + len
    done;
    (* Churn: scattered reads, full-range in-place updates (tid of the
       same key), short cross-shard scans, then remove the top quarter. *)
    batch (Array.init per (fun j -> Serve.Find keys.(base + (j * 7 mod per))));
    batch
      (Array.init per (fun j ->
           let s = base + j in
           Serve.Update (keys.(s), tids.(s))));
    batch (Array.init 64 (fun j -> Serve.Scan (keys.(base + j), 100)));
    batch
      (Array.init (per / 4) (fun j ->
           Serve.Remove keys.(base + per - (per / 4) + j)))
  in
  let ds = List.init producers (fun p -> Domain.spawn (producer p)) in
  List.iter Domain.join ds;
  (* Two explicit coordinator passes: the first re-splits the budget
     from the post-churn sizes, the second sees the fleet's reaction. *)
  Serve.rebalance_with serve (Serve.default_coordinator ~global_bound:bound);
  Serve.rebalance_with serve (Serve.default_coordinator ~global_bound:bound);
  let published = Array.fold_left ( + ) 0 (Serve.shard_sizes serve) in
  let rebalances = Serve.rebalances serve in
  Serve.stop serve;
  (* Total-count reconciliation: everything inserted minus the removes. *)
  Alcotest.(check int) "count reconciles"
    (n - (producers * (per / 4)))
    (Shard.count router);
  (* Total-bytes reconciliation: the sizes the domains published must
     match the parts' own accounting once the fleet is quiesced. *)
  Alcotest.(check int) "published bytes reconcile"
    (Shard.memory_bytes router)
    (Array.fold_left ( + ) 0 (Serve.shard_sizes serve));
  Alcotest.(check int) "exactly the explicit coordinator passes" 2 rebalances;
  Alcotest.(check bool) "aggregate within global bound (+10%)" true
    (float_of_int published <= 1.1 *. float_of_int bound);
  (* Deep validation of every shard: Check.run recurses into each part
     of the composite router. *)
  let report = Check.run (Shard.index_ops router) in
  fail_on_errors "shard fleet validator" (Check.errors report)

let () =
  Alcotest.run "ei_shard"
    [
      ( "churn",
        [
          Alcotest.test_case "4-domain elastic OLC churn" `Quick test_olc_churn;
          Alcotest.test_case "4-shard serve churn + coordinator" `Quick
            test_serve_churn;
        ] );
    ]
