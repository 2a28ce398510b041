(** Op tapes: the replayable input of the differential engine.

    A tape is a seed plus a pure description of a run — a key pool and
    an op sequence referencing the pool by index.  Two replays of one
    tape are bit-identical; any subsequence of the ops is itself a
    valid tape (the property ddmin shrinking relies on); tapes
    round-trip through [.sim.json] artifacts. *)

type op =
  | Insert of int  (** pool index *)
  | Remove of int
  | Update of int
      (** append a fresh row for the key, then overwrite its value *)
  | Find of int
  | Scan of int * int  (** start pool index, max entries *)
  | Set_bound of int  (** retune the elastic soft bound (bytes) *)
  | Fault_window of int
      (** arm the [sim.op] transient-fault site for the next [n] point
          ops *)
  | Checkpoint
      (** record count, contents fingerprint and bound compliance *)

type t = {
  seed : int;
  key_len : int;
  pool : int;  (** distinct keys; ops address them by index *)
  ops : op array;
}

val keys : t -> string array
(** The derived key pool: stream 0 of the tape seed, never stored. *)

val window_seed : t -> int -> int
(** Fault-plan seed of the [n]-th fault window: deterministic in
    (tape seed, ordinal), decorrelated from the op stream. *)

type gen = {
  g_ops : int;
  g_pool : int;
  g_scan_max : int;
  g_checkpoint_every : int;  (** exact cadence; 0 = final only *)
  g_bound_every : int;  (** ~one [Set_bound] per this many ops; 0 = none *)
  g_fault_every : int;
      (** ~one [Fault_window] per this many ops; 0 = none *)
  g_base_bound : int;  (** [Set_bound] draws around this many bytes *)
}

val default_gen : ?pool:int -> ops:int -> unit -> gen
(** Point/scan mix with periodic checkpoints; no bound changes, no
    fault windows. *)

val elastic_gen : ?pool:int -> ops:int -> base_bound:int -> unit -> gen
(** [default_gen] plus bound changes sweeping [[base/2, 3*base/2)]. *)

val faulty_gen : ?pool:int -> ops:int -> unit -> gen
(** [default_gen] plus transient-fault windows. *)

val generate : ?key_len:int -> seed:int -> gen -> t
(** Derive a tape: pure in [(seed, g)]. *)

val op_to_string : op -> string
val op_of_string : string -> (op, string) result

val to_json : t -> Ei_util.Mini_json.t
val of_json : Ei_util.Mini_json.t -> (t, string) result
