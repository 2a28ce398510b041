(* Op tapes: the replayable input of the differential engine.

   A tape is a seed plus a pure description of a run — a key pool and a
   sequence of operations referencing the pool by index.  Everything a
   run needs (keys, transient-fault windows, checkpoints, elastic bound
   changes) derives from the tape alone, so two replays of one tape are
   bit-identical, any subsequence of the ops is itself a valid tape
   (what lets ddmin shrink freely), and a tape round-trips through the
   [.sim.json] artifact format. *)

module Rng = Ei_util.Rng
module Key = Ei_util.Key
module Fnv = Ei_util.Fnv
module Mini_json = Ei_util.Mini_json

type op =
  | Insert of int  (* pool index *)
  | Remove of int
  | Update of int  (* fresh row appended for the key, then value overwrite *)
  | Find of int
  | Scan of int * int  (* start pool index, max entries *)
  | Set_bound of int  (* retune the elastic soft bound (bytes) *)
  | Fault_window of int
      (* arm the sim.op transient-fault site for the next n point ops *)
  | Checkpoint  (* record count, contents fingerprint, bound compliance *)

type t = {
  seed : int;
  key_len : int;
  pool : int;  (* distinct keys; ops address them by index *)
  ops : op array;
}

(* The pool is derived, never stored: stream 0 of the tape seed.
   Key collisions inside the pool are harmless (both runs of a pair see
   the same duplicates) and vanishingly rare at the pool sizes used. *)
let keys t =
  let rng = Rng.stream t.seed 0 in
  Array.init t.pool (fun _ -> Key.random rng t.key_len)

(* Per-window fault seed: decorrelated from the op stream, deterministic
   in (tape seed, window ordinal). *)
let window_seed t ordinal = Fnv.hash ~seed:t.seed (string_of_int ordinal)

(* --- Generation ------------------------------------------------------- *)

type gen = {
  g_ops : int;
  g_pool : int;
  g_scan_max : int;  (* scans draw a width in [1, g_scan_max] *)
  g_checkpoint_every : int;  (* exact cadence; 0 = final checkpoint only *)
  g_bound_every : int;  (* ~one Set_bound per this many ops; 0 = none *)
  g_fault_every : int;  (* ~one Fault_window per this many ops; 0 = none *)
  g_base_bound : int;  (* Set_bound draws around this many bytes *)
}

let default_gen ?(pool = 512) ~ops () =
  {
    g_ops = ops;
    g_pool = pool;
    g_scan_max = 64;
    g_checkpoint_every = max 1 (ops / 64);
    g_bound_every = 0;
    g_fault_every = 0;
    g_base_bound = 0;
  }

let elastic_gen ?(pool = 512) ~ops ~base_bound () =
  {
    (default_gen ~pool ~ops ()) with
    g_bound_every = max 1 (ops / 32);
    g_base_bound = base_bound;
  }

let faulty_gen ?(pool = 512) ~ops () =
  { (default_gen ~pool ~ops ()) with g_fault_every = max 1 (ops / 16) }

let generate ?(key_len = 8) ~seed g =
  (* Stream 1: op draws (stream 0 is the key pool). *)
  let rng = Rng.stream seed 1 in
  let pool = max 1 g.g_pool in
  let pick () = Rng.int rng pool in
  let ops =
    Array.init g.g_ops (fun i ->
        if
          g.g_checkpoint_every > 0 && (i + 1) mod g.g_checkpoint_every = 0
        then Checkpoint
        else if
          g.g_bound_every > 0 && g.g_base_bound > 0
          && Rng.int rng g.g_bound_every = 0
        then
          (* Bounds sweep [base/2, 3*base/2): tight enough to drive the
             elastic state machine through shrink and re-expand. *)
          Set_bound ((g.g_base_bound / 2) + Rng.int rng g.g_base_bound)
        else if g.g_fault_every > 0 && Rng.int rng g.g_fault_every = 0 then
          Fault_window (1 + Rng.int rng 32)
        else
          match Rng.int rng 100 with
          | d when d < 35 -> Insert (pick ())
          | d when d < 50 -> Remove (pick ())
          | d when d < 60 -> Update (pick ())
          | d when d < 85 -> Find (pick ())
          | _ -> Scan (pick (), 1 + Rng.int rng g.g_scan_max))
  in
  { seed; key_len; pool; ops }

(* --- Encoding --------------------------------------------------------- *)

let op_to_string = function
  | Insert i -> Printf.sprintf "i %d" i
  | Remove i -> Printf.sprintf "r %d" i
  | Update i -> Printf.sprintf "u %d" i
  | Find i -> Printf.sprintf "f %d" i
  | Scan (i, n) -> Printf.sprintf "s %d %d" i n
  | Set_bound b -> Printf.sprintf "b %d" b
  | Fault_window n -> Printf.sprintf "w %d" n
  | Checkpoint -> "c"

let op_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "c" ] -> Ok Checkpoint
  | [ tag; a ] -> (
    match (tag, int_of_string_opt a) with
    | "i", Some i -> Ok (Insert i)
    | "r", Some i -> Ok (Remove i)
    | "u", Some i -> Ok (Update i)
    | "f", Some i -> Ok (Find i)
    | "b", Some b -> Ok (Set_bound b)
    | "w", Some n -> Ok (Fault_window n)
    | _ -> Error (Printf.sprintf "bad op %S" s))
  | [ "s"; a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some i, Some n -> Ok (Scan (i, n))
    | _ -> Error (Printf.sprintf "bad op %S" s))
  | _ -> Error (Printf.sprintf "bad op %S" s)

let to_json t =
  Mini_json.Obj
    [
      ("seed", Mini_json.Int t.seed);
      ("key_len", Mini_json.Int t.key_len);
      ("pool", Mini_json.Int t.pool);
      ( "ops",
        Mini_json.List
          (Array.to_list
             (Array.map (fun op -> Mini_json.Str (op_to_string op)) t.ops)) );
    ]

let of_json j =
  let field name conv =
    match Option.bind (Mini_json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "tape: missing or bad field %S" name)
  in
  let ( let* ) = Result.bind in
  let* seed = field "seed" Mini_json.as_int in
  let* key_len = field "key_len" Mini_json.as_int in
  let* pool = field "pool" Mini_json.as_int in
  let* raw_ops = field "ops" Mini_json.as_list in
  let* ops =
    List.fold_left
      (fun acc jop ->
        let* acc = acc in
        match Option.map op_of_string (Mini_json.as_str jop) with
        | Some (Ok op) -> Ok (op :: acc)
        | Some (Error e) -> Error e
        | None -> Error "tape: non-string op")
      (Ok []) raw_ops
  in
  Ok { seed; key_len; pool; ops = Array.of_list (List.rev ops) }
