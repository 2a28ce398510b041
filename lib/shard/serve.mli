(** Domain-per-shard serving layer with a global elastic memory
    coordinator and a self-healing shard supervisor.

    Each shard of a {!Shard.t} is owned by one domain draining a
    bounded MPSC request queue in batches; exclusive ownership makes
    any sequential registry index domain-safe behind its queue.
    Clients submit operation batches with {!exec} — partitioned by
    shard, applied in parallel, scans continuing across shards in
    follow-up rounds.  {!Fleet} builds and starts every fleet.

    The coordinator (optional) periodically re-splits one global soft
    size bound across the shards from their published sizes — the
    paper's elasticity policy lifted from one tree to the fleet: hot
    shards keep more standard leaves, cold shards compact first.

    The supervisor (optional) makes the fleet self-healing: a shard
    domain that dies or wedges is detected (parked exception /
    heartbeat stall), its shard quarantined — reads degrade to direct
    single-threaded access, writes back off exponentially until
    re-admission or their deadline — its part rebuilt from the
    {!Ei_storage.Table} row table (the source of truth: supervised
    shard domains maintain per-row liveness as they apply), and a
    fresh domain re-admitted.  Recovery never loses an acknowledged
    write: only applied operations mark the table.

    Durability (optional): [start ~wal:cfg] gives every shard a
    {!Ei_wal.Wal} writer.  Mutations are framed as they apply and
    group-committed once per drained batch; results and waiter
    completions are withheld until the commit returns, so {e ack ⇒
    framed + fsynced} (at the default cadence).  On [start] and on
    every supervised recovery the part is rebuilt from disk — newest
    valid fingerprinted checkpoint plus log replay — instead of from
    the row table, which makes acknowledged writes survive process
    death, not just domain death.

    Fault injection ({!Ei_fault.Fault}): [start ~fault_prefix:p] arms
    sites [p.crash.shard<i>], [p.poison.shard<i>] and
    [p.queue.shard<i>.{drop,delay,refuse}] — all inert until a fault
    plan is configured.  With a WAL, additionally
    [p.wal.{torn,fsync,ckpt}.shard<i>] (see {!Ei_wal.Wal.faults}). *)

type op =
  | Insert of string * int
  | Remove of string
  | Update of string * int
  | Find of string
  | Scan of string * int

(** Per-operation result of {!exec}. *)
type outcome =
  | Applied of int
      (** applied; the int is the op's result — insert / remove /
          update 1 if it took effect else 0, find the tid or -1, scan
          the visited count *)
  | Rejected
      (** shed by a transient injected fault; safe to retry — the
          operation was not applied *)
  | Timed_out
      (** not acknowledged before the deadline (or failed by a shard
          crash): the operation may or may not have been applied *)

(** {b Exactly-one-outcome guarantee} (the contract the net front end
    builds on): {!exec} settles {e every} slot of its batch, whatever
    happens underneath.  A shard-domain crash or quarantine mid-batch
    leaves the affected slots at the pending sentinel, which settles
    as [Timed_out]; injected transient faults settle as [Rejected].
    No slot is ever skipped, so a network server can map outcomes
    positionally to typed wire replies ([Applied] / [Rejected] /
    [Timed_out]) and promise each in-flight request exactly one
    response instead of a dropped connection — the mapping
    [Ei_net.Server] implements and [test_net] asserts across
    crash-during-pipeline runs. *)

exception Crashed of string
(** An injected shard-domain crash (carries the fault site name);
    escapes into the supervisor, never to clients. *)

type coordinator_config = {
  global_bound : int;  (** bytes, split across the fleet *)
  interval_s : float;  (** seconds between rebalances *)
  demand_weight : float;
      (** fraction of the budget split proportionally to current shard
          sizes; the rest is split evenly *)
  min_fraction : float;
      (** per-shard floor, as a fraction of the even share *)
}

val default_coordinator : global_bound:int -> coordinator_config
(** 50 ms interval, [demand_weight = 0.5], [min_fraction = 0.5]. *)

val split_bounds : coordinator_config -> sizes:int array -> int array
(** The coordinator's split as a pure function: demand-weighted,
    floored at [min_fraction] of the even share, renormalised to sum
    to [global_bound], each bound at least 1.  [[||]] for an empty
    fleet. *)

type supervisor_config = {
  table : Ei_storage.Table.t;
      (** the row table recoveries rebuild from; supervised shard
          domains maintain its per-row liveness as they apply.
          Growing the table while the fleet serves is safe: the
          liveness store is growth-stable (chunked pages that are
          appended, never moved — see {!Ei_storage.Table}), so a mark
          racing an append-driven grow is never lost *)
  rebuild : int -> Ei_harness.Index_ops.t;
      (** fresh, empty part for shard [i] (same kind/key_len as the
          one it replaces) *)
  poll_interval_s : float;  (** seconds between supervisor passes *)
  stall_timeout_s : float;
      (** heartbeat silence under queued load that diagnoses a wedged
          domain.  Must sit well above the worst-case batch time: an
          abandoned slow-but-alive domain is fenced per operation by
          its generation (it stops applying and completes its popped
          waiters within one op of waking), but an operation it is
          {e inside} when abandoned can still mark row liveness
          concurrently with the rebuild — the one residual wedge
          race *)
}

val default_supervisor :
  table:Ei_storage.Table.t ->
  rebuild:(int -> Ei_harness.Index_ops.t) ->
  supervisor_config
(** 2 ms poll interval, 1 s stall timeout. *)

type t

val start :
  ?queue_capacity:int ->
  ?batch:int ->
  ?coordinator:coordinator_config ->
  ?supervisor:supervisor_config ->
  ?fault_prefix:string ->
  ?timeout_s:float ->
  ?wal:Ei_wal.Wal.config ->
  ?wal_restore:(tid:int -> key:string -> unit) ->
  Shard.t ->
  t
(** Spawn one domain per shard (plus the coordinator and supervisor
    domains when configured).  [queue_capacity] bounds each shard's
    request queue (producers block when full); [batch] caps the
    sub-batches drained per wakeup; [fault_prefix] arms the injection
    sites; [timeout_s] is the default {!exec} deadline (none: block
    until applied).

    [wal] makes the shards durable: before any domain is spawned,
    every part — which must be handed over {e empty} — is recovered
    from [wal.dir] ({!Ei_wal.Wal.recover}), with [wal_restore] invoked
    per recovered [(tid, key)] so the caller can rematerialise
    backing-store rows ({!Ei_storage.Table.restore_row}).  Crash
    recovery of a WAL fault requires a [supervisor] (the domain dies
    and must be rebuilt from disk); a WAL without a supervisor is
    fine for clean stop/start durability. *)

val stop : t -> unit
(** Join the coordinator and supervisor, close the queues, drain
    remaining work, join all shard domains, and cleanly close the WAL
    writers (final fsync + clean-shutdown marker).  The underlying
    indexes remain usable single-threaded afterwards. *)

val exec :
  ?collect:(string -> unit) ->
  ?timeout_s:float ->
  ?barrier:bool ->
  t ->
  op array ->
  outcome array
(** Apply a batch: partition by shard, enqueue one sub-batch per
    shard, block until every sub-batch settles or the deadline
    ([timeout_s], defaulting to the [start] value) passes.  Outcomes
    are positional.  Scans continue across shards until satisfied; a
    scan whose continuation fails reports the failure, never a partial
    count as if complete.  [collect] receives every key visited by
    scan ops (shared by all scans in the batch).  On a quarantined
    shard, reads are answered directly (degraded single-threaded path,
    serialised against the rebuild — a degraded read always sees the
    rebuilt part, never the dying one) and writes retry with
    exponential backoff until re-admission or the deadline.

    [barrier] (default [false]) trades the degraded path for
    determinism: each sub-batch submission first waits — bounded by
    the deadline — until its shard is re-admitted, so every fault-site
    draw happens in the same fleet state on every equal-seed run.  The
    deterministic chaos soak submits with [barrier:true]. *)

val shard_sizes : t -> int array
(** Per-shard sizes as last published by the shard domains. *)

val batches : t -> int
(** Sub-batches applied so far, fleet-wide. *)

val rebalances : t -> int
(** Coordinator passes completed so far. *)

val recoveries : t -> int
(** Shard recoveries completed so far. *)

val recovery_log : t -> (int * string * int) list
(** Completed recoveries, oldest first: shard index, cause (printed
    exception or wedge diagnosis), rows reinserted (from the row table,
    or from checkpoint + replay when a WAL is configured). *)

val wal_recoveries : t -> (int * Ei_wal.Wal.recovery) list
(** Per-shard start-time WAL recovery reports ([[]] without a WAL):
    checkpoint loaded, records replayed, torn tails truncated, clean
    marker seen. *)

val healthy : t -> bool
(** No shard is quarantined and no failure is awaiting recovery.  A
    shard-domain death parks its failure before acknowledging the
    in-flight batch, so a client that saw a [Timed_out] caused by a
    crash observes [healthy = false] until that shard is rebuilt and
    re-admitted — the barrier the deterministic chaos soak spins on. *)

val rebalance_now : t -> unit
(** Run one coordinator pass immediately (no-op without a coordinator
    config); deterministic-test support. *)

val rebalance_with : t -> coordinator_config -> unit
(** Run one coordinator pass with an explicit config — the
    deterministic, client-driven rebalance used by the chaos soak
    (which runs without the coordinator domain so its fault schedule
    stays a pure function of the seed). *)
