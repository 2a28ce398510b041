(* ei_sim: the simulation harness's own suite.

   - differential runs: oracle vs every tree-shaped subject over
     >= 100k-op tapes (fixed seeds, overridable with EI_SEED);
   - a known-divergence self-test: a scratch btree branch with a
     planted off-by-one must be caught, shrunk to a tiny repro tape,
     and round-tripped through a .sim.json artifact;
   - the fiber scheduler: determinism, a planted lost-update race the
     explorer and the exhaustive enumerator must both find (and the
     shrinker must minimise), and the OLC race/conversion scenarios
     that must survive exploration;
   - the serve perturbation engine at smoke scale. *)

module Rng = Ei_util.Rng
module Key = Ei_util.Key
module Index_ops = Ei_harness.Index_ops
module Tape = Ei_sim.Tape
module Sim = Ei_sim.Sim
module Sched = Ei_sim.Sched
module Mini_json = Ei_util.Mini_json

let seed = Rng.env_seed ~default:42

let subj ?(bound = 1 lsl 20) name =
  match Sim.subject_of_name ~bound ~key_len:8 name with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let traces_equal a b =
  Array.length a = Array.length b && Array.for_all2 String.equal a b

(* --- Determinism ------------------------------------------------------ *)

let test_run_deterministic () =
  let tape = Tape.generate ~seed (Tape.faulty_gen ~ops:20_000 ()) in
  List.iter
    (fun name ->
      let t1 = Sim.run_tape (subj name) tape in
      let t2 = Sim.run_tape (subj name) tape in
      Alcotest.(check bool)
        (name ^ " traces byte-identical across invocations")
        true (traces_equal t1 t2))
    [ "btree"; "olc-elastic" ]

let test_tape_json_roundtrip () =
  let tape = Tape.generate ~seed (Tape.elastic_gen ~ops:500 ~base_bound:4096 ()) in
  let json = Mini_json.to_string (Tape.to_json tape) in
  match Result.bind (Mini_json.parse json) Tape.of_json with
  | Error e -> Alcotest.fail e
  | Ok tape' ->
    Alcotest.(check int) "seed" tape.Tape.seed tape'.Tape.seed;
    Alcotest.(check int) "pool" tape.Tape.pool tape'.Tape.pool;
    Alcotest.(check bool) "ops" true
      (Array.for_all2
         (fun a b -> String.equal (Tape.op_to_string a) (Tape.op_to_string b))
         tape.Tape.ops tape'.Tape.ops);
    Alcotest.(check bool) "identical traces" true
      (traces_equal
         (Sim.run_tape (subj "seqtree") tape)
         (Sim.run_tape (subj "seqtree") tape'))

(* --- Differential runs ------------------------------------------------ *)

let agree ?slack ?check_mem ?(gen = fun ~ops () -> Tape.default_gen ~ops ())
    ?bound ~ops name () =
  let tape = Tape.generate ~seed (gen ~ops ()) in
  match
    Sim.diff_pair ?slack ?check_mem (subj "oracle") (subj ?bound name) tape
  with
  | None -> ()
  | Some d -> Alcotest.fail (Sim.pp_divergence ~a:"oracle" ~b:name d)

let test_oracle_vs_btree = agree ~ops:100_000 "btree"
let test_oracle_vs_skiplist = agree ~ops:100_000 "skiplist"
let test_oracle_vs_seqtree = agree ~ops:100_000 "seqtree"
let test_oracle_vs_olc = agree ~ops:100_000 "olc"

let test_oracle_vs_btree_faulty () =
  agree ~gen:(fun ~ops () -> Tape.faulty_gen ~ops ()) ~ops:60_000 "btree" ();
  (* Guard against vacuous plumbing: the windows must actually inject. *)
  let tape = Tape.generate ~seed (Tape.faulty_gen ~ops:60_000 ()) in
  let tr = Sim.run_tape (subj "btree") tape in
  let injected =
    Array.fold_left
      (fun acc e ->
        if String.length e > 0 && Char.equal e.[String.length e - 1] '!' then
          acc + 1
        else acc)
      0 tr
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d ops injected away" injected)
    true (injected > 0)

(* Elastic subjects: bound changes drive the state machine; checkpoints
   additionally record bound compliance (memory <= slack * bound). *)
let elastic_agree name =
  let base_bound = 48 * 1024 in
  agree ~slack:4.0 ~check_mem:true
    ~gen:(fun ~ops () -> Tape.elastic_gen ~ops ~base_bound ())
    ~ops:60_000 ~bound:base_bound name

let test_oracle_vs_elastic = elastic_agree "elastic"
let test_oracle_vs_elastic_skiplist = elastic_agree "elastic-skiplist"
let test_oracle_vs_olc_elastic = elastic_agree "olc-elastic"

(* --- Known divergence: planted off-by-one ----------------------------- *)

(* A scratch btree branch whose scans have a classic boundary
   off-by-one: entries *equal to* the start key are skipped (">"
   instead of ">=").  The harness must catch it and shrink the repro
   to a tiny tape (an insert and a scan hitting that key). *)
let buggy_btree () =
  let real = subj "btree" in
  Sim.subject ~name:"buggy-btree" ~elastic:false (fun table ->
      let ix = real.Sim.s_make table in
      let skip_eq start visit k =
        if not (String.equal k start) then visit k
      in
      {
        ix with
        Index_ops.scan =
          (fun start n ->
            let c = ref 0 in
            ignore
              (ix.Index_ops.scan_keys start n
                 (skip_eq start (fun _ -> incr c)));
            !c);
        scan_keys =
          (fun start n visit ->
            let c = ref 0 in
            ignore
              (ix.Index_ops.scan_keys start n
                 (skip_eq start
                    (fun k ->
                      incr c;
                      visit k)));
            !c);
      })

let test_divergence_caught_and_shrunk () =
  let oracle = subj "oracle" in
  let buggy = buggy_btree () in
  let tape = Tape.generate ~seed (Tape.default_gen ~ops:5_000 ()) in
  (match Sim.diff_pair oracle buggy tape with
  | None -> Alcotest.fail "planted off-by-one not caught"
  | Some _ -> ());
  let shrunk = Sim.shrink_tape oracle buggy tape in
  let len = Array.length shrunk.Tape.ops in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to %d ops (<= 20)" len)
    true (len <= 20);
  (match Sim.diff_pair oracle buggy shrunk with
  | None -> Alcotest.fail "shrunk tape no longer diverges"
  | Some _ -> ());
  (* The artifact must round-trip and still reproduce a divergence —
     against the *real* btree it reproduces nothing (the bug is in the
     scratch branch), so replay it against the oracle/btree pair and
     expect agreement, then against the planted subject by hand. *)
  let path = Filename.temp_file "ei_sim" ".sim.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sim.write_artifact ~path
        (Sim.A_diff
           {
             tape = shrunk;
             a = "oracle";
             b = "btree";
             bound = 1 lsl 20;
             slack = 3.0;
             check_mem = false;
             divergence = "planted off-by-one (scratch branch)";
           });
      match Sim.replay_file ~path with
      | Ok (false, _) -> ()  (* the real btree is correct on this tape *)
      | Ok (true, msg) -> Alcotest.fail ("real btree diverged: " ^ msg)
      | Error e -> Alcotest.fail e);
  (* And the loaded tape still kills the planted branch. *)
  let reloaded =
    match
      Result.bind
        (Mini_json.parse (Mini_json.to_string (Tape.to_json shrunk)))
        Tape.of_json
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  match Sim.diff_pair oracle buggy reloaded with
  | None -> Alcotest.fail "reloaded tape no longer diverges"
  | Some _ -> ()

(* --- Fiber scheduler -------------------------------------------------- *)

let mk name () =
  match Sim.scenario name with
  | Some mk -> mk
  | None -> Alcotest.fail ("missing scenario " ^ name)

let test_sched_deterministic () =
  let run () =
    Sched.run ~policy:(Sched.Random (Rng.stream seed 7)) (mk "olc-race" () ())
  in
  match (run (), run ()) with
  | Ok s1, Ok s2 ->
    Alcotest.(check (list int)) "same realized schedule" s1 s2
  | Error (_, e), _ | _, Error (_, e) -> Alcotest.fail e

let test_lost_update_found_and_shrunk () =
  let mk = mk "lost-update" () in
  match Sched.explore ~seed ~rounds:64 mk with
  | None -> Alcotest.fail "explorer missed the planted lost-update race"
  | Some f ->
    let shrunk = Sched.shrink ~schedule:f.Sched.schedule mk in
    Alcotest.(check bool)
      (Printf.sprintf "schedule shrunk to %d choices" (List.length shrunk))
      true
      (List.length shrunk <= List.length f.Sched.schedule);
    (match Sched.replay ~schedule:shrunk mk with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "shrunk schedule no longer fails");
    (* Artifact round-trip through .sim.json. *)
    let path = Filename.temp_file "ei_sim" ".sim.json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Sim.write_artifact ~path
          (Sim.A_sched
             {
               scenario = "lost-update";
               seed;
               schedule = shrunk;
               error = f.Sched.error;
             });
        match Sim.replay_file ~path with
        | Ok (true, _) -> ()
        | Ok (false, msg) -> Alcotest.fail ("not reproduced: " ^ msg)
        | Error e -> Alcotest.fail e)

let test_lost_update_enumerated () =
  (* Enumeration stops at the first failing prefix, so coverage is
     asserted on a benign scenario below. *)
  let failure, _ = Sched.enumerate ~fanout:2 ~depth:4 (mk "lost-update" ()) in
  match failure with
  | Some _ -> ()
  | None -> Alcotest.fail "exhaustive enumeration missed the race"

let test_enumerate_coverage () =
  (* Race-free two-fiber scenario: every interleaving passes, and the
     prefix sweep must realize several distinct schedules. *)
  let benign () =
    let a = ref 0 and b = ref 0 in
    let fib r () =
      r := !r + 1;
      Sched.pause ();
      r := !r + 1
    in
    {
      Sched.fibers = [| ("a", fib a); ("b", fib b) |];
      check =
        (fun () ->
          if !a <> 2 || !b <> 2 then
            Ei_util.Invariant.brokenf "benign: a=%d b=%d" !a !b);
    }
  in
  let failure, distinct = Sched.enumerate ~fanout:2 ~depth:3 benign in
  (match failure with
  | None -> ()
  | Some f -> Alcotest.fail ("benign scenario failed: " ^ f.Sched.error));
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct schedules realized" distinct)
    true (distinct >= 3)

let test_olc_scenarios_survive_exploration () =
  List.iter
    (fun name ->
      match Sched.explore ~seed ~rounds:20 (mk name ()) with
      | None -> ()
      | Some f ->
        Alcotest.fail
          (Printf.sprintf "%s failed at round %d: %s" name f.Sched.round
             f.Sched.error))
    [ "olc-race"; "olc-convert-scan"; "olc-multi-find" ]

let test_olc_convert_scan_enumerated () =
  let failure, distinct =
    Sched.enumerate ~fanout:2 ~depth:8 (mk "olc-convert-scan" ())
  in
  Alcotest.(check bool) "coverage" true (distinct >= 4);
  match failure with
  | None -> ()
  | Some f -> Alcotest.fail ("olc-convert-scan: " ^ f.Sched.error)

let test_olc_multi_find_enumerated () =
  let failure, distinct =
    Sched.enumerate ~fanout:2 ~depth:8 (mk "olc-multi-find" ())
  in
  Alcotest.(check bool) "coverage" true (distinct >= 4);
  match failure with
  | None -> ()
  | Some f -> Alcotest.fail ("olc-multi-find: " ^ f.Sched.error)

(* --- Serve perturbation ----------------------------------------------- *)

let test_serve_perturbed_smoke () =
  match Sim.explore_serve ~shards:2 ~scale:0.02 ~seed ~rounds:1 () with
  | None -> ()
  | Some (round_seed, report) ->
    Alcotest.fail
      (Printf.sprintf "perturbed chaos failed (seed %d):\n%s" round_seed
         report)

let () =
  Alcotest.run "sim"
    [
      ( "determinism",
        [
          Alcotest.test_case "seeded run is byte-identical" `Quick
            test_run_deterministic;
          Alcotest.test_case "tape round-trips through JSON" `Quick
            test_tape_json_roundtrip;
        ] );
      ( "differential",
        [
          Alcotest.test_case "oracle vs btree (100k ops)" `Quick
            test_oracle_vs_btree;
          Alcotest.test_case "oracle vs skiplist (100k ops)" `Quick
            test_oracle_vs_skiplist;
          Alcotest.test_case "oracle vs seqtree (100k ops)" `Quick
            test_oracle_vs_seqtree;
          Alcotest.test_case "oracle vs olc (100k ops)" `Quick
            test_oracle_vs_olc;
          Alcotest.test_case "oracle vs btree under fault windows" `Quick
            test_oracle_vs_btree_faulty;
          Alcotest.test_case "oracle vs elastic (bounds + memok)" `Quick
            test_oracle_vs_elastic;
          Alcotest.test_case "oracle vs elastic-skiplist" `Quick
            test_oracle_vs_elastic_skiplist;
          Alcotest.test_case "oracle vs olc-elastic" `Quick
            test_oracle_vs_olc_elastic;
          Alcotest.test_case "planted off-by-one caught, shrunk, replayed"
            `Quick test_divergence_caught_and_shrunk;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "equal seeds realize equal schedules" `Quick
            test_sched_deterministic;
          Alcotest.test_case "lost-update race found and shrunk" `Quick
            test_lost_update_found_and_shrunk;
          Alcotest.test_case "lost-update race enumerated exhaustively" `Quick
            test_lost_update_enumerated;
          Alcotest.test_case "enumeration coverage on a benign scenario" `Quick
            test_enumerate_coverage;
          Alcotest.test_case "olc scenarios survive random exploration" `Slow
            test_olc_scenarios_survive_exploration;
          Alcotest.test_case "olc-convert-scan survives enumeration" `Slow
            test_olc_convert_scan_enumerated;
          Alcotest.test_case "olc-multi-find survives enumeration" `Slow
            test_olc_multi_find_enumerated;
        ] );
      ( "serve",
        [
          Alcotest.test_case "perturbed chaos smoke" `Slow
            test_serve_perturbed_smoke;
        ] );
    ]
