(** Range-partitioned shard router: N {!Ei_harness.Index_ops.t}
    instances (any registry kind) behind one [Index_ops.t].

    Point operations route to the owning shard ({!Shard_map}), scans
    continue into successive shards with the same start key (the
    partition is monotone in key order), aggregates sum over the parts.
    The router adds no synchronisation — see {!Serve} for the
    domain-per-shard executor. *)

type t

val create : Ei_harness.Index_ops.t array -> t
(** [create parts] routes over [parts] in shard order.  All parts must
    share one [key_len]; requires at least one part. *)

val shard_count : t -> int
val parts : t -> Ei_harness.Index_ops.t array
val key_len : t -> int

val shard_of_key : t -> string -> int

val memory_bytes : t -> int
val count : t -> int

val index_ops : ?name:string -> t -> Ei_harness.Index_ops.t
(** The router as a uniform index ([backend = B_composite]); single
    domain — {!Ei_check.Check.run} recurses into every part. *)
