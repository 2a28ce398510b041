(** The one fleet builder: a row table, one part per shard over it, the
    {!Shard} router and the {!Serve} executor, started under the one
    durable policy.

    Every sharded fleet in the repository — the [ei] serving commands,
    the parallel benchmarks, the chaos soak and the tests — is a
    {!config} handed to {!start}.  The policy: a WAL implies a
    supervisor (a WAL crash kills the shard domain, and the rebuild
    path is recover-from-disk) and a [wal_restore] that rematerialises
    recovered rows with {!Ei_storage.Table.restore_row}. *)

(** What each shard's part is. *)
type part =
  | Olc of Ei_olc.Btree_olc.leaf_kind  (** the same BTreeOLC kind on every shard *)
  | Elastic of int
      (** elastic BTreeOLC parts sharing one global soft bound (bytes),
          split evenly: each part starts at [max 1 (bound / shards)] *)
  | Custom of (load:(int -> string) -> int -> Ei_harness.Index_ops.t)
      (** [f ~load i] builds shard [i]'s part over the table's loader *)

type config = {
  shards : int;
  key_len : int;
  table_capacity : int;  (** initial row-table capacity *)
  part : part;
  coordinator : bool;
      (** run the periodic coordinator over the [Elastic] bound;
          [Invalid_argument] with any other part *)
  supervisor : bool;  (** self-healing shards; implied by [wal] *)
  wal : Ei_wal.Wal.config option;
  fault_prefix : string option;  (** arms {!Serve}'s injection sites *)
  timeout_s : float option;  (** default {!Serve.exec} deadline *)
}

val default : config
(** 4 shards of [Olc Olc_std] over 8-byte keys, table capacity 1024,
    no coordinator, supervisor, WAL, fault sites or deadline. *)

type t = {
  table : Ei_storage.Table.t;
  router : Shard.t;
  serve : Serve.t;
  part : int -> Ei_harness.Index_ops.t;
      (** a fresh, empty part for shard [i] (the supervisor's rebuild) *)
}

val start : config -> t
(** Build the table (torn-read-proof loader), the parts and the router,
    then {!Serve.start} them.  With a WAL every part is recovered from
    disk before any domain runs. *)

val exec : ?stop:(unit -> bool) -> t -> Serve.op array -> int
(** Apply [ops] in order, in 512-op {!Serve.exec} calls, and return how
    many were shed ([Rejected] or [Timed_out]).  [stop] is polled
    before each call; once it answers [true] the rest is skipped. *)
