(* First use of [Ei_wal.Crc32] from two domains at once.

   Two shard WAL writers can commit their first batch at the same
   instant, so the CRC table must already be built when either asks
   for it.  Each trial forks a fresh process, where no CRC has been
   taken yet, releases two domains together and checks both digests.
   Forking is safe here: the parent process never spawns a domain. *)

module Crc32 = Ei_wal.Crc32

let trials = 50

(* CRC-32 check value of "123456789". *)
let check_value = 0xcbf43926

let trial () =
  match Unix.fork () with
  | 0 ->
    let go = Atomic.make false in
    let race () =
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      match Crc32.string "123456789" with
      | c -> c = check_value
      | exception _ -> false
    in
    let d = Domain.spawn race in
    Unix.sleepf 0.001;
    Atomic.set go true;
    let mine = race () in
    let theirs = Domain.join d in
    Unix._exit (if mine && theirs then 0 else 1)
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> true
    | _ -> false)

let test_first_use_race () =
  let failed = ref 0 in
  for _ = 1 to trials do
    if not (trial ()) then incr failed
  done;
  Alcotest.(check int) "trials where a domain saw no digest" 0 !failed

let () =
  Alcotest.run "crc_race"
    [
      ( "crc32",
        [
          Alcotest.test_case "two domains race the first digest" `Quick
            test_first_use_race;
        ] );
    ]
