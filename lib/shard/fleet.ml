(* The one fleet builder (see the interface for the durable policy). *)

module Olc = Ei_olc.Btree_olc
module Table = Ei_storage.Table
module Registry = Ei_harness.Registry
module Index_ops = Ei_harness.Index_ops

type part =
  | Olc of Olc.leaf_kind
  | Elastic of int
  | Custom of (load:(int -> string) -> int -> Index_ops.t)

type config = {
  shards : int;
  key_len : int;
  table_capacity : int;
  part : part;
  coordinator : bool;
  supervisor : bool;
  wal : Ei_wal.Wal.config option;
  fault_prefix : string option;
  timeout_s : float option;
}

let default =
  {
    shards = 4;
    key_len = 8;
    table_capacity = 1024;
    part = Olc Olc.Olc_std;
    coordinator = false;
    supervisor = false;
    wal = None;
    fault_prefix = None;
    timeout_s = None;
  }

type t = {
  table : Table.t;
  router : Shard.t;
  serve : Serve.t;
  part : int -> Index_ops.t;
}

let start c =
  let table = Table.create ~initial_capacity:c.table_capacity ~key_len:c.key_len () in
  let load =
    Olc.safe_loader ~key_len:c.key_len
      ~table_length:(fun () -> Table.length table)
      ~load:(Table.loader table)
  in
  let olc kind i =
    let kind = Registry.Olc kind in
    Registry.make
      ~name:(Printf.sprintf "%s/%d" (Registry.kind_name kind) i)
      ~key_len:c.key_len ~load kind
  in
  let part =
    match c.part with
    | Olc kind -> olc kind
    | Elastic bound ->
      olc (Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:(max 1 (bound / c.shards))))
    | Custom f -> f ~load
  in
  let coordinator =
    match (c.coordinator, c.part) with
    | false, _ -> None
    | true, Elastic global_bound -> Some (Serve.default_coordinator ~global_bound)
    | true, (Olc _ | Custom _) -> invalid_arg "Fleet.start: a coordinator needs Elastic parts"
  in
  let durable = Option.is_some c.wal in
  let supervisor =
    if c.supervisor || durable then Some (Serve.default_supervisor ~table ~rebuild:part)
    else None
  in
  let wal_restore =
    if durable then Some (fun ~tid ~key -> Table.restore_row table ~tid ~key) else None
  in
  let router = Shard.create (Array.init c.shards part) in
  let serve =
    Serve.start ?coordinator ?supervisor ?fault_prefix:c.fault_prefix ?timeout_s:c.timeout_s
      ?wal:c.wal ?wal_restore router
  in
  { table; router; serve; part }

(* Client-side batch size; Serve re-partitions each batch by shard. *)
let batch = 512

let exec ?(stop = fun () -> false) t ops =
  let n = Array.length ops in
  let shed = ref 0 in
  let i = ref 0 in
  while !i < n && not (stop ()) do
    let len = min batch (n - !i) in
    Array.iter
      (function Serve.Applied _ -> () | Serve.Rejected | Serve.Timed_out -> incr shed)
      (Serve.exec t.serve (Array.sub ops !i len));
    i := !i + len
  done;
  !shed
