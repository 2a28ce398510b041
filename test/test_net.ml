(* ei_net test suite.

   a. Wire codec: qcheck round-trips for every request and reply
      constructor, plus the shared adversarial battery (Codec_harness,
      also used by the WAL frame suite): every single-bit flip, every
      truncation and every length-field lie must never decode to a
      value — and some attacks bit flips cannot reach: a frame with a
      {e valid} CRC over an overlong payload, an unknown tag, a
      negative id.
   b. Connection state machines: chunked-feed equivalence (any
      chunking of the byte stream decodes to the same requests),
      reader poisoning, and the session's ordered-shed policy (batch
      acks before same-round [Busy] sheds, reply stream in request
      order).
   c. The [net-pipeline] sim scenario survives random exploration and
      bounded-exhaustive enumeration, and is registered for the CLI.
   d. End-to-end over a Unix socket: basic operations, per-connection
      pipelining order, backpressure under a fault-slowed fleet (the
      flooder gets [Busy]; a well-behaved client on another connection
      still completes), typed [Timed_out] replies that do not kill the
      connection, key-length validation, exactly-one-reply across
      injected shard crashes with supervisor recovery, and graceful
      drain on {!Server.stop}. *)

module Wire = Ei_net.Wire
module Conn = Ei_net.Conn
module Session = Ei_net.Session
module Server = Ei_net.Server
module Client = Ei_net.Client
module Serve = Ei_shard.Serve
module Fleet = Ei_shard.Fleet
module Fault = Ei_fault.Fault
module Key = Ei_util.Key
module Rng = Ei_util.Rng
module Crc32 = Ei_wal.Crc32
module Sim = Ei_sim.Sim
module Sched = Ei_sim.Sched
module H = Codec_harness

let qt = QCheck_alcotest.to_alcotest

(* --- a. wire codec ---------------------------------------------------- *)

let key_gen = QCheck.Gen.(string_size ~gen:char (int_range 0 40))

let request_gen =
  QCheck.Gen.(
    let id = int_range 0 0x3FFF_FFFF in
    let op =
      frequency
        [
          (2, map (fun k -> Wire.Insert k) key_gen);
          (2, map (fun k -> Wire.Remove k) key_gen);
          (2, map (fun k -> Wire.Update k) key_gen);
          (2, map (fun k -> Wire.Find k) key_gen);
          ( 1,
            map2 (fun k n -> Wire.Scan (k, n)) key_gen (int_range 0 0xffffffff)
          );
        ]
    in
    map2 (fun id op -> { Wire.id; op }) id op)

let request_arb = QCheck.make ~print:Wire.describe_request request_gen

let reply_gen =
  QCheck.Gen.(
    let id = int_range 0 0x3FFF_FFFF in
    let status =
      frequency
        [
          (3, map (fun r -> Wire.Applied r) (int_range (-1) 0x3FFF_FFFF));
          (1, return Wire.Rejected);
          (1, return Wire.Timed_out);
          (1, return Wire.Busy);
        ]
    in
    map2 (fun rid status -> { Wire.rid; status }) id status)

let reply_arb = QCheck.make ~print:Wire.describe_reply reply_gen

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request round-trips" ~count:500 request_arb (fun r ->
      let s = Wire.encode_request r in
      match Wire.decode_request s ~pos:0 with
      | Wire.Done (r', n) -> r' = r && n = String.length s
      | Wire.More | Wire.Corrupt _ -> false)

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"reply round-trips" ~count:500 reply_arb (fun r ->
      let s = Wire.encode_reply r in
      match Wire.decode_reply s ~pos:0 with
      | Wire.Done (r', n) -> r' = r && n = String.length s
      | Wire.More | Wire.Corrupt _ -> false)

(* Fixed vectors hitting every constructor and the id/result edges. *)
let fixed_requests =
  [
    { Wire.id = 0; op = Wire.Insert "k0000001" };
    { Wire.id = 1; op = Wire.Remove (String.make 8 '\xff') };
    { Wire.id = 0x7fff_ffff; op = Wire.Update "\x00\x01\x02\x03" };
    { Wire.id = 2; op = Wire.Find "" };
    { Wire.id = 3; op = Wire.Scan ("abcdefgh", 0) };
    { Wire.id = 4; op = Wire.Scan ("", 0xffffffff) };
  ]

let fixed_replies =
  [
    { Wire.rid = 0; status = Wire.Applied (-1) };
    { Wire.rid = 1; status = Wire.Applied 0 };
    { Wire.rid = 0x7fff_ffff; status = Wire.Applied 0x7fff_ffff };
    { Wire.rid = 2; status = Wire.Rejected };
    { Wire.rid = 3; status = Wire.Timed_out };
    { Wire.rid = 4; status = Wire.Busy };
  ]

let req_verdict s =
  match Wire.decode_request s ~pos:0 with
  | Wire.Done _ -> H.Accepted
  | Wire.More -> H.Incomplete
  | Wire.Corrupt _ -> H.Rejected

let rep_verdict s =
  match Wire.decode_reply s ~pos:0 with
  | Wire.Done _ -> H.Accepted
  | Wire.More -> H.Incomplete
  | Wire.Corrupt _ -> H.Rejected

(* A damaged frame must never be accepted; the incremental decoder may
   hold judgement ([More]) when the damage only lengthens the frame. *)
let damaged = function H.Rejected | H.Incomplete -> true | H.Accepted -> false

(* A pure truncation, though, is always just an incomplete frame: the
   decoder must keep waiting, never misreport corruption. *)
let truncated = function H.Incomplete -> true | H.Rejected | H.Accepted -> false

let test_request_bit_flips () =
  H.check_bit_flips ~what:"request" ~describe:Wire.describe_request
    ~encode:Wire.encode_request ~verdict:req_verdict ~allowed:damaged
    fixed_requests

let test_reply_bit_flips () =
  H.check_bit_flips ~what:"reply" ~describe:Wire.describe_reply
    ~encode:Wire.encode_reply ~verdict:rep_verdict ~allowed:damaged
    fixed_replies

let test_request_truncations () =
  H.check_truncations ~what:"request" ~describe:Wire.describe_request
    ~encode:Wire.encode_request ~verdict:req_verdict ~allowed:truncated
    fixed_requests

let test_reply_truncations () =
  H.check_truncations ~what:"reply" ~describe:Wire.describe_reply
    ~encode:Wire.encode_reply ~verdict:rep_verdict ~allowed:truncated
    fixed_replies

let test_length_lies () =
  H.check_length_lies ~what:"request" ~describe:Wire.describe_request
    ~encode:Wire.encode_request ~verdict:req_verdict ~allowed:damaged
    fixed_requests;
  H.check_length_lies ~what:"reply" ~describe:Wire.describe_reply
    ~encode:Wire.encode_reply ~verdict:rep_verdict ~allowed:damaged
    fixed_replies

let prop_request_random_flip =
  H.prop_random_flip ~name:"random request bit flip never accepted"
    ~arb:request_arb ~encode:Wire.encode_request ~verdict:req_verdict
    ~allowed:damaged

let prop_reply_random_flip =
  H.prop_random_flip ~name:"random reply bit flip never accepted"
    ~arb:reply_arb ~encode:Wire.encode_reply ~verdict:rep_verdict
    ~allowed:damaged

(* Attacks a single bit flip cannot reach: frames whose CRC is valid
   but whose payload violates the protocol. *)
let forge payload =
  let b = Buffer.create 32 in
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (Int32.of_int (Crc32.string payload));
  Buffer.add_string b payload;
  Buffer.contents b

let test_golden () =
  H.check_golden ~what:"request" ~describe:Wire.describe_request
    ~encode:Wire.encode_request
    ~decodes:(fun s r ->
      match Wire.decode_request s ~pos:0 with
      | Wire.Done (r', n) -> r' = r && n = String.length s
      | Wire.More | Wire.Corrupt _ -> false)
    [
      ( { Wire.id = 0; op = Wire.Insert "k0000001" },
        "13000000af845cc401000000000000000008006b30303030303031" );
      ( { Wire.id = 1; op = Wire.Remove (String.make 8 '\xff') },
        "13000000fe395f160201000000000000000800ffffffffffffffff" );
      ( { Wire.id = 0x7fff_ffff; op = Wire.Update "\x00\x01\x02\x03" },
        "0f00000020c167ae03ffffff7f00000000040000010203" );
      ( { Wire.id = 2; op = Wire.Find "" },
        "0b0000005312abdf0402000000000000000000" );
      ( { Wire.id = 3; op = Wire.Scan ("abcdefgh", 0xffffffff) },
        "17000000bd48db7105030000000000000008006162636465666768ffffffff" );
    ];
  H.check_golden ~what:"reply" ~describe:Wire.describe_reply
    ~encode:Wire.encode_reply
    ~decodes:(fun s r ->
      match Wire.decode_reply s ~pos:0 with
      | Wire.Done (r', n) -> r' = r && n = String.length s
      | Wire.More | Wire.Corrupt _ -> false)
    [
      ( { Wire.rid = 0; status = Wire.Applied (-1) },
        "11000000b568d89a100000000000000000ffffffffffffffff" );
      ( { Wire.rid = 0x7fff_ffff; status = Wire.Applied 0x7fff_ffff },
        "110000007969ab4610ffffff7f00000000ffffff7f00000000" );
      ( { Wire.rid = 3; status = Wire.Rejected }, "090000007f453dd3110300000000000000" );
      ( { Wire.rid = 4; status = Wire.Timed_out }, "09000000a37075e0120400000000000000" );
      ( { Wire.rid = 5; status = Wire.Busy }, "090000007e64a43b130500000000000000" );
    ]

let test_valid_crc_forgeries () =
  let le64 v =
    String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))
  in
  let checks =
    [
      (* trailing byte after a complete Find payload: exact-consumption *)
      ("trailing payload bytes", "\x04" ^ le64 5 ^ "\x02\x00hi" ^ "\x00");
      ("unknown request tag", "\x09" ^ le64 5 ^ "\x02\x00hi");
      ("negative id", "\x04" ^ String.make 8 '\xff' ^ "\x02\x00hi");
      ("key overruns payload", "\x04" ^ le64 5 ^ "\xff\xffhi");
      ("scan count missing", "\x05" ^ le64 5 ^ "\x02\x00hi");
    ]
  in
  List.iter
    (fun (what, payload) ->
      match Wire.decode_request (forge payload) ~pos:0 with
      | Wire.Corrupt _ -> ()
      | Wire.Done _ -> Alcotest.failf "%s accepted" what
      | Wire.More -> Alcotest.failf "%s held as incomplete" what)
    checks;
  match Wire.decode_reply (forge ("\x10" ^ le64 1 ^ le64 3)) ~pos:0 with
  | Wire.Done ({ Wire.rid = 1; status = Wire.Applied 3 }, _) -> ()
  | _ -> Alcotest.fail "forge helper builds broken frames"

(* --- b. connection state machines ------------------------------------- *)

let prop_chunked_feed =
  QCheck.Test.make ~name:"any chunking decodes to the same requests"
    ~count:200
    QCheck.(
      pair
        (make Gen.(list_size (int_bound 12) request_gen))
        (make Gen.(int_bound 10_000)))
    (fun (rs, seed) ->
      let all = String.concat "" (List.map Wire.encode_request rs) in
      let rng = Rng.stream seed 0 in
      let r = Conn.reader ~decode:Wire.decode_request in
      let acc = ref [] in
      let i = ref 0 in
      let n = String.length all in
      while !i < n do
        let len = min (1 + Rng.int rng 7) (n - !i) in
        (match Conn.feed r ~pos:!i ~len all with
        | Ok got -> acc := List.rev_append got !acc
        | Error e -> Alcotest.failf "chunked feed rejected: %s" e);
        i := !i + len
      done;
      List.rev !acc = rs
      && Conn.reader_pending r = 0
      && Conn.reader_error r = None)

let test_reader_poisoned () =
  let r = Conn.reader ~decode:Wire.decode_request in
  (match Conn.feed r (String.make 20 '\xff') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (* Poisoned for good: even a valid frame is refused afterwards. *)
  match Conn.feed r (Wire.encode_request (List.hd fixed_requests)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned reader came back to life"

let decode_all_replies bytes =
  let r = Conn.reader ~decode:Wire.decode_reply in
  match Conn.feed r bytes with
  | Error e -> Alcotest.failf "reply stream corrupt: %s" e
  | Ok rs ->
    Alcotest.(check int) "no partial reply left over" 0 (Conn.reader_pending r);
    rs

let test_session_shed_order () =
  let s = Session.create ~window:3 () in
  let reqs =
    Array.init 10 (fun i -> { Wire.id = i; op = Wire.Find (Key.of_int i) })
  in
  let bytes =
    String.concat "" (Array.to_list (Array.map Wire.encode_request reqs))
  in
  (match Session.feed s bytes with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let batch = Session.take s in
  Alcotest.(check int) "round capped at the window" 3 (Array.length batch);
  Array.iteri
    (fun i (r : Wire.request) ->
      Alcotest.(check int) "oldest ids form the round" i r.Wire.id)
    batch;
  Alcotest.(check int) "rest of the queue drained for shedding" 0
    (Session.queued s);
  Session.complete s (Array.map (fun _ -> Wire.Applied 1) batch);
  Alcotest.(check int) "seven shed" 7 (Session.shed_count s);
  Alcotest.(check int) "ten replies queued" 10 (Session.replied_count s);
  let replies = decode_all_replies (Session.out_take s ~max:max_int) in
  Alcotest.(check int) "one reply per request" 10 (List.length replies);
  List.iteri
    (fun i (r : Wire.reply) ->
      Alcotest.(check int) "reply stream in request order" i r.Wire.rid;
      let want = if i < 3 then Wire.Applied 1 else Wire.Busy in
      if r.Wire.status <> want then
        Alcotest.failf "id %d: got %s" i (Wire.describe_reply r))
    replies;
  (* The session keeps going: the next round starts clean. *)
  (match
     Session.feed s (Wire.encode_request { Wire.id = 10; op = Wire.Find "x" })
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "next round formed" 1 (Array.length (Session.take s))

(* --- c. the net-pipeline sim scenario --------------------------------- *)

let seed = try int_of_string (Sys.getenv "EI_SEED") with Not_found -> 0x5eed

let mk_scenario name =
  match Sim.scenario name with
  | Some mk -> mk
  | None -> Alcotest.fail ("missing scenario " ^ name)

let test_scenario_registered () =
  Alcotest.(check bool) "net-pipeline registered" true
    (List.mem "net-pipeline" (Sim.scenario_names ()))

let test_net_pipeline_explored () =
  match Sched.explore ~seed ~rounds:25 (mk_scenario "net-pipeline") with
  | None -> ()
  | Some f ->
    Alcotest.fail
      (Printf.sprintf "net-pipeline failed at round %d: %s" f.Sched.round
         f.Sched.error)

let test_net_pipeline_enumerated () =
  let failure, distinct =
    Sched.enumerate ~fanout:3 ~depth:6 (mk_scenario "net-pipeline")
  in
  Alcotest.(check bool) "coverage" true (distinct >= 4);
  match failure with
  | None -> ()
  | Some f -> Alcotest.fail ("net-pipeline: " ^ f.Sched.error)

(* --- d. end-to-end over a Unix socket --------------------------------- *)

let sock_path name =
  let p =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ei-test-net-%d-%s.sock" (Unix.getpid ()) name)
  in
  if Sys.file_exists p then Sys.remove p;
  p

(* Start fleet + server on a fresh unix socket, run [f server serve
   client], tear everything down (fault plan included) even on
   failure. *)
let with_server ?config ?serve_timeout_s ?(supervised = false) ?(shards = 2)
    name f =
  let fleet =
    Fleet.start
      {
        Fleet.default with
        shards;
        supervisor = supervised;
        fault_prefix = Some "serve";
        timeout_s = serve_timeout_s;
      }
  in
  let serve = fleet.Fleet.serve in
  let server =
    Server.start ?config ~serve ~table:fleet.Fleet.table (Unix.ADDR_UNIX (sock_path name))
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.clear ();
      Server.stop server;
      Serve.stop serve)
    (fun () ->
      let c = Client.connect (Server.addr server) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f server serve c))

let check_applied what want statuses =
  Alcotest.(check int)
    (what ^ ": reply count") (Array.length want) (Array.length statuses);
  Array.iteri
    (fun i st ->
      if st <> Wire.Applied want.(i) then
        Alcotest.failf "%s: op %d got %s, want applied %d" what i
          (Wire.describe_reply { Wire.rid = i; status = st })
          want.(i))
    statuses

let test_basic_ops () =
  with_server "basic" (fun _server _serve c ->
      let k i = Key.of_int i in
      (* Ops on one key land on one shard and apply in slot order; a
         scan races everything in its batch, so it gets its own. *)
      let b1 =
        Client.call c
          [|
            Wire.Insert (k 1);
            Wire.Insert (k 2);
            Wire.Insert (k 2);  (* duplicate: answered, not applied *)
            Wire.Find (k 1);
            Wire.Find (k 99);
          |]
      in
      (* Find returns the server-assigned tid: opaque but >= 0. *)
      let tid1 =
        match b1.(3) with
        | Wire.Applied tid when tid >= 0 -> tid
        | st ->
          Alcotest.failf "find after insert: %s"
            (Wire.describe_reply { Wire.rid = 3; status = st })
      in
      check_applied "batch1" [| 1; 1; 0; tid1; -1 |] b1;
      check_applied "batch2"
        [| 1; -1 |]
        (Client.call c [| Wire.Remove (k 1); Wire.Find (k 1) |]);
      (* Only k2 is left: the scan from the low key sees exactly it,
         and an update remaps it to a fresh row (a fresh tid). *)
      let b3 =
        Client.call c
          [| Wire.Scan (k 0, 10); Wire.Update (k 2); Wire.Find (k 2) |]
      in
      (match b3.(2) with
      | Wire.Applied tid when tid >= 0 -> ()
      | st ->
        Alcotest.failf "find after update: %s"
          (Wire.describe_reply { Wire.rid = 2; status = st }));
      if b3.(0) <> Wire.Applied 1 || b3.(1) <> Wire.Applied 1 then
        Alcotest.failf "scan/update: %s / %s"
          (Wire.describe_reply { Wire.rid = 0; status = b3.(0) })
          (Wire.describe_reply { Wire.rid = 1; status = b3.(1) }))

let test_pipelined_closed_loop () =
  with_server "closed" (fun _server _serve c ->
      let n = 500 in
      let stats =
        Client.run_closed c ~window:64 ~count:n ~op:(fun i ->
            Wire.Insert (Key.of_int i))
      in
      Alcotest.(check int) "all sent" n stats.Client.sent;
      Alcotest.(check int) "all applied (distinct keys)" n
        stats.Client.applied;
      Alcotest.(check int) "latencies recorded" n
        (Array.length stats.Client.lat_ns);
      Alcotest.(check bool) "p99 computed" true
        (Client.quantile stats.Client.lat_ns 0.99 > 0))

let test_key_length_rejected () =
  with_server "badkey" (fun _server _serve c ->
      let statuses =
        Client.call c
          [| Wire.Insert "short"; Wire.Find (Key.of_int 5); Wire.Insert "" |]
      in
      Alcotest.(check bool) "wrong-length key rejected, not dropped" true
        (statuses.(0) = Wire.Rejected && statuses.(2) = Wire.Rejected);
      Alcotest.(check bool) "valid op in the same round still served" true
        (statuses.(1) = Wire.Applied (-1)))

let test_backpressure_busy_and_no_starvation () =
  (* Every queue push sleeps 1 ms: rounds become slow, the flooder's
     600 pipelined requests pile up far past the window of 16, and the
     session must shed with [Busy] instead of buffering them all. *)
  Fault.configure ~seed:7 [ ("serve.queue.*.delay", 1.0) ];
  with_server
    ~config:{ Server.default_config with window = 16 }
    "busy"
    (fun server _serve c ->
      let n = 600 in
      let statuses =
        Client.call c (Array.init n (fun i -> Wire.Insert (Key.of_int i)))
      in
      let count st = Array.fold_left (fun a s -> if s = st then a + 1 else a) 0 statuses in
      let busy = count Wire.Busy in
      Alcotest.(check int) "exactly one reply each" n (Array.length statuses);
      Alcotest.(check bool)
        (Printf.sprintf "flooder shed with Busy (%d of %d)" busy n)
        true (busy > 0);
      (* A well-behaved client on a second connection is not starved
         behind the flooder's backlog. *)
      let c2 = Client.connect (Server.addr server) in
      Fun.protect
        ~finally:(fun () -> Client.close c2)
        (fun () ->
          match Client.call c2 [| Wire.Find (Key.of_int 1) |] with
          | [| Wire.Applied _ |] -> ()
          | [| st |] ->
            Alcotest.failf "well-behaved client got %s"
              (Wire.describe_reply { Wire.rid = 0; status = st })
          | _ -> Alcotest.fail "well-behaved client reply count"))

let test_timed_out_typed_not_dropped () =
  (* A 1 ms-per-push fleet against a microscopic exec deadline: slots
     expire to [Timed_out] — typed replies on a connection that stays
     up, not a dropped connection. *)
  Fault.configure ~seed:7 [ ("serve.queue.*.delay", 1.0) ];
  with_server
    ~config:
      { Server.default_config with window = 8; exec_timeout_s = Some 1e-6 }
    "timeout"
    (fun _server _serve c ->
      let statuses =
        Client.call c (Array.init 8 (fun i -> Wire.Insert (Key.of_int i)))
      in
      Alcotest.(check bool) "some slots timed out" true
        (Array.exists (fun s -> s = Wire.Timed_out) statuses);
      (* The connection survived: the probe must be answered with one
         typed reply.  (The microscopic deadline is server config, so
         the probe itself may well time out too — what matters is that
         it is answered, not dropped.) *)
      Fault.clear ();
      match Client.call c [| Wire.Find (Key.of_int 424242) |] with
      | [| (Wire.Applied _ | Wire.Rejected | Wire.Timed_out | Wire.Busy) |] ->
        ()
      | _ -> Alcotest.fail "connection did not survive the timeouts")

let test_exactly_one_reply_across_crashes () =
  (* Injected shard crashes with supervisor recovery while a client
     keeps pipelining: Client.call itself asserts the exactly-one-reply
     contract (it raises Protocol on a lost, duplicated or reordered
     reply, and blocks forever on a dropped one); the statuses must
     stay in the typed set with the connection alive throughout. *)
  Fault.configure ~seed:11 [ ("serve.crash", 0.02) ];
  with_server ~serve_timeout_s:0.2 ~supervised:true "crash"
    (fun _server serve c ->
      let sent = ref 0 in
      for round = 0 to 39 do
        let statuses =
          Client.call c
            (Array.init 25 (fun i ->
                 Wire.Insert (Key.of_int ((round * 25) + i))))
        in
        sent := !sent + Array.length statuses
      done;
      Alcotest.(check int) "every request answered exactly once" 1000 !sent;
      Alcotest.(check bool) "crashes actually happened and recovered" true
        (Serve.recoveries serve >= 1);
      Fault.clear ();
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_healthy () =
        if not (Serve.healthy serve) then
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "fleet never recovered"
          else begin
            Unix.sleepf 0.005;
            wait_healthy ()
          end
      in
      wait_healthy ();
      (* After the storm: the same connection still serves.  (A find
         may legally miss — a timed-out insert is allowed to be lost
         across a crash — but it must be answered.) *)
      match Client.call c [| Wire.Find (Key.of_int 0) |] with
      | [| Wire.Applied _ |] -> ()
      | _ -> Alcotest.fail "connection did not survive the crashes")

let test_graceful_stop_drains () =
  let fleet = Fleet.start { Fleet.default with shards = 2 } in
  let serve = fleet.Fleet.serve in
  let server =
    Server.start ~serve ~table:fleet.Fleet.table (Unix.ADDR_UNIX (sock_path "stop"))
  in
  let c = Client.connect (Server.addr server) in
  let statuses =
    Client.call c (Array.init 50 (fun i -> Wire.Insert (Key.of_int i)))
  in
  Alcotest.(check int) "all answered before stop" 50 (Array.length statuses);
  (* Stop with the connection open: must not hang, and the client must
     see a clean EOF (all replies flushed, nothing torn). *)
  Server.stop server;
  Server.stop server;  (* idempotent *)
  (match Client.call c [| Wire.Find (Key.of_int 1) |] with
  | exception Client.Protocol _ -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  | _ -> Alcotest.fail "server answered after stop");
  Client.close c;
  Serve.stop serve

let () =
  Alcotest.run "net"
    [
      ( "codec",
        [
          qt prop_request_roundtrip;
          qt prop_reply_roundtrip;
          qt prop_request_random_flip;
          qt prop_reply_random_flip;
          Alcotest.test_case "every request bit flip refused" `Quick
            test_request_bit_flips;
          Alcotest.test_case "every reply bit flip refused" `Quick
            test_reply_bit_flips;
          Alcotest.test_case "every request truncation incomplete" `Quick
            test_request_truncations;
          Alcotest.test_case "every reply truncation incomplete" `Quick
            test_reply_truncations;
          Alcotest.test_case "length-field lies refused" `Quick
            test_length_lies;
          Alcotest.test_case "valid-CRC forgeries refused" `Quick
            test_valid_crc_forgeries;
          Alcotest.test_case "golden bytes per tag" `Quick test_golden;
        ] );
      ( "conn",
        [
          qt prop_chunked_feed;
          Alcotest.test_case "corrupt stream poisons the reader" `Quick
            test_reader_poisoned;
          Alcotest.test_case "ordered shed: batch acks then Busy" `Quick
            test_session_shed_order;
        ] );
      ( "sim",
        [
          Alcotest.test_case "net-pipeline registered" `Quick
            test_scenario_registered;
          Alcotest.test_case "net-pipeline survives random schedules" `Slow
            test_net_pipeline_explored;
          Alcotest.test_case "net-pipeline survives enumeration" `Slow
            test_net_pipeline_enumerated;
        ] );
      ( "server",
        [
          Alcotest.test_case "basic ops round-trip" `Quick test_basic_ops;
          Alcotest.test_case "closed-loop pipelining" `Quick
            test_pipelined_closed_loop;
          Alcotest.test_case "wrong key length rejected in place" `Quick
            test_key_length_rejected;
          Alcotest.test_case "backpressure: Busy, no cross-conn starvation"
            `Quick test_backpressure_busy_and_no_starvation;
          Alcotest.test_case "timeouts are typed replies" `Quick
            test_timed_out_typed_not_dropped;
          Alcotest.test_case "exactly one reply across shard crashes" `Slow
            test_exactly_one_reply_across_crashes;
          Alcotest.test_case "graceful stop drains and closes" `Quick
            test_graceful_stop_drains;
        ] );
    ]
