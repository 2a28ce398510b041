(* Regression tests for the fault-injection substrate and the
   self-healing serving layer.

   a. Fault sites: seed-pure fire sequences, wildcard plan matching,
      plan parsing.
   b. Mpsc_queue close race: a producer blocked on a full queue must
      wake and raise Closed when the consumer closes — the original
      close/push race — and admitted elements stay poppable.
   c. split_bounds edge cases: empty fleet, zero-size fleet, a single
      hot shard, min_fraction floors summing past the bound, and the
      every-bound-at-least-one clamp.
   d. Supervisor crash recovery: injected shard-domain crashes under a
      live insert workload; every acknowledged insert must be present
      after the last recovery (zero lost acks) and the recovery count
      must be visible in the log.
   e. Chaos determinism: two equal-seed soak runs agree byte-for-byte
      on the fault schedule and the recovery sequence. *)

module Fault = Ei_fault.Fault
module Mpsc = Ei_shard.Mpsc_queue
module Serve = Ei_shard.Serve
module Shard = Ei_shard.Shard
module Fleet = Ei_shard.Fleet
module Chaos = Ei_chaos.Chaos
module Table = Ei_storage.Table
module Key = Ei_util.Key

(* --- a. fault sites -------------------------------------------------- *)

let fire_seq site n = List.init n (fun _ -> Fault.fire site)

let test_fault_streams () =
  let s = Fault.site "test.stream.a" in
  Fault.configure ~seed:7 [ ("test.stream", 0.3) ];
  let first = fire_seq s 200 in
  (* Re-seeding replays the exact same draw sequence. *)
  Fault.configure ~seed:7 [ ("test.stream", 0.3) ];
  Alcotest.(check (list bool)) "same seed, same schedule" first (fire_seq s 200);
  (* A different seed diverges (200 draws at p = 0.3 cannot all agree). *)
  Fault.configure ~seed:8 [ ("test.stream", 0.3) ];
  Alcotest.(check bool) "different seed diverges" false
    (List.equal Bool.equal first (fire_seq s 200));
  Fault.clear ();
  Alcotest.(check bool) "inert without a plan" false
    (List.exists Fun.id (fire_seq s 200))

let test_fault_wildcard () =
  let drop3 = Fault.site "test.queue.shard3.drop" in
  let drop5 = Fault.site "test.queue.shard5.drop" in
  let delay3 = Fault.site "test.queue.shard3.delay" in
  Fault.configure ~seed:1 [ ("test.queue.*.drop", 1.0) ];
  Alcotest.(check bool) "wildcard arms shard3.drop" true (Fault.fire drop3);
  Alcotest.(check bool) "wildcard arms shard5.drop" true (Fault.fire drop5);
  Alcotest.(check bool) "wildcard leaves delay inert" false (Fault.fire delay3);
  (* A prefix key arms every site below it. *)
  Fault.configure ~seed:1 [ ("test.queue", 1.0) ];
  Alcotest.(check bool) "prefix arms the subtree" true (Fault.fire delay3);
  Fault.clear ()

let test_parse_plan () =
  (match Fault.parse_plan "a.b=0.5,c=1" with
  | Ok [ ("a.b", p); ("c", q) ] ->
    Alcotest.(check (float 0.)) "p" 0.5 p;
    Alcotest.(check (float 0.)) "q" 1.0 q
  | Ok _ -> Alcotest.fail "wrong bindings"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.parse_plan "a=1.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted probability > 1");
  match Fault.parse_plan "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a binding without a value"

(* --- b. queue close race --------------------------------------------- *)

let test_queue_close_race () =
  let q : int Mpsc.t = Mpsc.create ~capacity:1 () in
  Mpsc.push q 1;
  (* The queue is full: this producer must block, then be woken by
     [close] and raise Closed rather than wait forever. *)
  let producer =
    Domain.spawn (fun () ->
        try
          Mpsc.push q 2;
          false
        with Mpsc.Closed -> true)
  in
  Unix.sleepf 0.05;
  Mpsc.close q;
  Alcotest.(check bool) "blocked producer woke with Closed" true
    (Domain.join producer);
  Alcotest.(check bool) "closed" true (Mpsc.is_closed q);
  (* Elements admitted before the close stay poppable; a drained closed
     queue answers [] (the consumer's termination signal). *)
  Alcotest.(check (list int)) "admitted element drains" [ 1 ]
    (Mpsc.pop_batch q ~max:8);
  Alcotest.(check (list int)) "drained closed queue answers []" []
    (Mpsc.pop_batch q ~max:8);
  (* Pushing after close fails fast. *)
  match Mpsc.push q 3 with
  | () -> Alcotest.fail "push after close succeeded"
  | exception Mpsc.Closed -> ()

(* --- c. split_bounds edge cases -------------------------------------- *)

let cfg ~global_bound ~min_fraction =
  { (Serve.default_coordinator ~global_bound) with min_fraction }

let test_split_bounds () =
  let check_arr name expect got = Alcotest.(check (array int)) name expect got in
  (* Empty fleet. *)
  check_arr "empty fleet" [||]
    (Serve.split_bounds (cfg ~global_bound:1024 ~min_fraction:0.5) ~sizes:[||]);
  (* Zero-size fleet: even split. *)
  check_arr "zero sizes split evenly"
    [| 256; 256; 256; 256 |]
    (Serve.split_bounds
       (cfg ~global_bound:1024 ~min_fraction:0.5)
       ~sizes:[| 0; 0; 0; 0 |]);
  (* Single hot shard: demand weight flows to it, the cold shards sit
     on the min_fraction floor. *)
  check_arr "single hot shard"
    [| 640; 128; 128; 128 |]
    (Serve.split_bounds
       (cfg ~global_bound:1024 ~min_fraction:0.5)
       ~sizes:[| 1000; 0; 0; 0 |]);
  (* min_fraction floors summing past the bound: every shard is floored,
     renormalisation scales the floors back inside the bound (an even
     split — no shard may starve, no fleet may exceed the budget). *)
  check_arr "floors past the bound renormalise"
    [| 256; 256; 256; 256 |]
    (Serve.split_bounds
       (cfg ~global_bound:1024 ~min_fraction:3.0)
       ~sizes:[| 100; 0; 0; 0 |]);
  (* Degenerate budget: every bound is clamped to at least 1 so no
     shard ever receives a zero (or negative) bound. *)
  check_arr "bounds never drop below 1" [| 1; 1; 1 |]
    (Serve.split_bounds (cfg ~global_bound:1 ~min_fraction:0.5)
       ~sizes:[| 0; 0; 0 |]);
  (* Skewed but bounded: the sum never exceeds the budget (truncation
     may undershoot by at most one byte per shard). *)
  let sizes = [| 7; 7_000; 70; 700_000 |] in
  let bounds =
    Serve.split_bounds (cfg ~global_bound:100_000 ~min_fraction:0.25) ~sizes
  in
  let sum = Array.fold_left ( + ) 0 bounds in
  Alcotest.(check bool) "sum within budget" true (sum <= 100_000);
  Alcotest.(check bool) "sum close to budget" true (sum >= 100_000 - 4);
  Alcotest.(check bool) "hottest shard gets the largest bound" true
    (bounds.(3) = Array.fold_left max 0 bounds)

(* --- d. supervisor crash recovery ------------------------------------ *)

let rec wait_healthy serve =
  if not (Serve.healthy serve) then begin
    Unix.sleepf 0.001;
    wait_healthy serve
  end

let test_supervisor_recovery () =
  let shards = 2 in
  let n = 600 in
  Fault.configure ~seed:11 [ ("serve.crash", 0.01) ];
  let fleet =
    Fleet.start
      {
        Fleet.default with
        shards;
        table_capacity = 4 * n;
        supervisor = true;
        fault_prefix = Some "serve";
        timeout_s = Some 0.2;
      }
  in
  let table = fleet.Fleet.table and serve = fleet.Fleet.serve in
  let keys = Array.init n (fun i -> Key.of_int (i * 7919)) in
  let tids = Array.map (Table.append table) keys in
  (* Insert every key until acknowledged.  Applied 0 (duplicate) counts:
     a timed-out attempt may have landed before its shard crashed. *)
  for i = 0 to n - 1 do
    let acked = ref false in
    while not !acked do
      match (Serve.exec serve [| Serve.Insert (keys.(i), tids.(i)) |]).(0) with
      | Serve.Applied _ -> acked := true
      | Serve.Rejected -> ()
      | Serve.Timed_out -> wait_healthy serve
    done
  done;
  Fault.clear ();
  wait_healthy serve;
  let recoveries = Serve.recoveries serve in
  let log = Serve.recovery_log serve in
  (* Zero lost acknowledged writes: every acked insert must be found
     with its tid after the crashes and rebuilds. *)
  let lost = ref 0 in
  let i = ref 0 in
  while !i < n do
    let len = min 64 (n - !i) in
    let ops = Array.init len (fun j -> Serve.Find keys.(!i + j)) in
    Array.iteri
      (fun j out ->
        match out with
        | Serve.Applied tid when tid = tids.(!i + j) -> ()
        | _ -> incr lost)
      (Serve.exec serve ops);
    i := !i + len
  done;
  Serve.stop serve;
  Alcotest.(check int) "zero lost acknowledged writes" 0 !lost;
  Alcotest.(check bool) "crashes actually happened and recovered" true
    (recoveries >= 1);
  Alcotest.(check int) "recovery log matches the counter" recoveries
    (List.length log);
  Alcotest.(check int) "count reconciles" n (Shard.count fleet.Fleet.router)

(* --- e. chaos determinism -------------------------------------------- *)

let test_chaos_determinism () =
  let config = { (Chaos.default_config ~seed:123) with Chaos.scale = 0.05 } in
  let r1 = Chaos.run config in
  let r2 = Chaos.run config in
  Alcotest.(check bool) "first run ok" true (Chaos.ok r1);
  Alcotest.(check bool) "second run ok" true (Chaos.ok r2);
  Alcotest.(check string) "equal seeds, equal schedule and recoveries"
    (Chaos.schedule_digest r1) (Chaos.schedule_digest r2);
  Alcotest.(check int) "equal outcome counts" r1.Chaos.applied r2.Chaos.applied

let () =
  Alcotest.run "ei_fault"
    [
      ( "sites",
        [
          Alcotest.test_case "seed-pure streams" `Quick test_fault_streams;
          Alcotest.test_case "wildcard plans" `Quick test_fault_wildcard;
          Alcotest.test_case "plan parsing" `Quick test_parse_plan;
        ] );
      ( "queue",
        [ Alcotest.test_case "close race" `Quick test_queue_close_race ] );
      ( "coordinator",
        [ Alcotest.test_case "split_bounds edges" `Quick test_split_bounds ] );
      ( "supervisor",
        [
          Alcotest.test_case "crash recovery, zero lost acks" `Quick
            test_supervisor_recovery;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "equal-seed runs replay exactly" `Quick
            test_chaos_determinism;
        ] );
    ]
