(* Workloads and their seeded op streams.

   Every op carries the reply a single-client shadow model predicts for
   it: one client submits in order, and the serving layer applies each
   shard's ops in submission order (reads are regrouped only among
   reads), so the reply of op i is a function of ops 0..i alone. *)

module Rng = Ei_util.Rng
module Ycsb = Ei_workload.Ycsb

type kind = Read_dram | Churn_wal | Net_mixed

type t = {
  name : string;
  kind : kind;
  keys : int;  (** keys loaded at set-up *)
  shards : int;
  batch : int;  (** ops per Serve.exec call; the pipelining window on the wire *)
  setups : int;  (** set-ups per run; setup_s is their median *)
  warmup : int;  (** untimed calls before the timed phase *)
  ladder_calls : int;  (** client calls in the standalone rungs' stretch *)
  space_overhead : int option;  (** the GC setting the run uses, if not the default *)
}

let all =
  [
    {
      name = "read-dram";
      kind = Read_dram;
      keys = 2_000_000;
      shards = 2;
      batch = 512;
      setups = 3;
      warmup = 200;
      ladder_calls = 600;
      (* With the default (120), the major GC's marking of the 2 M-key
         heap ran in differently timed slices from run to run and moved
         identical runs' throughput by up to 30 %; a lazier major GC
         trades memory (rss_mb) for steady figures. *)
      space_overhead = Some 1000;
    };
    {
      name = "churn-wal";
      kind = Churn_wal;
      keys = 200_000;
      shards = 2;
      batch = 512;
      setups = 5;
      warmup = 100;
      ladder_calls = 300;
      space_overhead = None;
    };
    {
      name = "net-mixed";
      kind = Net_mixed;
      keys = 200_000;
      shards = 1;
      batch = 64;
      setups = 5;
      warmup = 20_000;
      ladder_calls = 1600;
      space_overhead = None;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* 60 % of an unconstrained elastic BTreeOLC of this many keys (the
   fig6/fig7 heuristic), so compact leaves exist on every shard. *)
let global_bound w = w.keys * 27 * 6 / 10

let scan_len = 20

(* Client calls between client-driven coordinator passes. *)
let rebalance_every = 16

type tag = Find | Scan | Insert | Remove | Update

type op = {
  tag : tag;
  seq : int;  (** key sequence number: the key is [Ycsb.key_of_seq seq] *)
  key : string;
  tid : int;  (** row id an insert or update points at *)
  expect : int;  (** predicted [Applied] result *)
}

let is_write op =
  match op.tag with
  | Insert | Remove | Update -> true
  | Find | Scan -> false

let to_serve op : Ei_shard.Serve.op =
  match op.tag with
  | Find -> Find op.key
  | Scan -> Scan (op.key, scan_len)
  | Insert -> Insert (op.key, op.tid)
  | Remove -> Remove op.key
  | Update -> Update (op.key, op.tid)

let to_wire op : Ei_net.Wire.op =
  match op.tag with
  | Find -> Find op.key
  | Scan -> Scan (op.key, scan_len)
  | Insert -> Insert op.key
  | Remove -> Remove op.key
  | Update -> Update op.key

type gen = {
  w : t;
  rng : Rng.t;
  mutable fresh_ins : int;  (** fresh keys inserted so far *)
  mutable fresh_rem : int;  (** of which removed, oldest first *)
  mutable rows : int;  (** row-table length: the next tid *)
  moved : (int, int) Hashtbl.t;  (** loaded seq -> tid after a net update *)
  top : string array;  (** the [scan_len] largest loaded keys, ascending *)
  mutable digest : int;
}

let top_keys n =
  let top = Array.make scan_len "" in
  let filled = ref 0 in
  for s = 0 to n - 1 do
    let k = Ycsb.key_of_seq s in
    if !filled < scan_len then begin
      top.(!filled) <- k;
      incr filled;
      if !filled = scan_len then Array.sort String.compare top
    end
    else if String.compare k top.(0) > 0 then begin
      (* drop the smallest, insert k in order *)
      let i = ref 1 in
      while !i < scan_len && String.compare top.(!i) k < 0 do
        top.(!i - 1) <- top.(!i);
        incr i
      done;
      top.(!i - 1) <- k
    end
  done;
  top

let create w ~seed =
  {
    w;
    rng = Rng.stream seed 0;
    fresh_ins = 0;
    fresh_rem = 0;
    rows = w.keys;
    moved = Hashtbl.create 1024;
    top = (match w.kind with Read_dram -> top_keys w.keys | _ -> [||]);
    digest = 0x4bf29ce484222325;
  }

(* Entries a [scan_len] scan from [k] visits: all of them unless [k] is
   above the [scan_len]-th largest key. *)
let scan_expect g k =
  if String.compare k g.top.(0) <= 0 then scan_len
  else Array.fold_left (fun c t -> if String.compare t k >= 0 then c + 1 else c) 0 g.top

let mk tag seq ~tid ~expect =
  { tag; seq; key = Ycsb.key_of_seq seq; tid; expect }

let fresh_row g =
  let tid = g.rows in
  g.rows <- g.rows + 1;
  tid

let insert_fresh g =
  let seq = g.w.keys + g.fresh_ins in
  g.fresh_ins <- g.fresh_ins + 1;
  mk Insert seq ~tid:(fresh_row g) ~expect:1

(* Remove the oldest fresh key, or update a loaded key until one
   exists (fig6_par's churn shape). *)
let remove_or_update g ~net =
  if g.fresh_rem < g.fresh_ins then begin
    let seq = g.w.keys + g.fresh_rem in
    g.fresh_rem <- g.fresh_rem + 1;
    mk Remove seq ~tid:0 ~expect:1
  end
  else begin
    let s = Rng.int g.rng g.w.keys in
    if net then begin
      (* the server appends a fresh row for every update *)
      let tid = fresh_row g in
      Hashtbl.replace g.moved s tid;
      mk Update s ~tid ~expect:1
    end
    else mk Update s ~tid:s ~expect:1
  end

let find_loaded g =
  let s = Rng.int g.rng g.w.keys in
  let tid = match Hashtbl.find_opt g.moved s with Some t -> t | None -> s in
  mk Find s ~tid ~expect:tid

let draw g =
  match g.w.kind with
  | Read_dram ->
    if Rng.int g.rng 100 < 95 then find_loaded g
    else begin
      let s = Rng.int g.rng g.w.keys in
      let op = mk Scan s ~tid:0 ~expect:0 in
      { op with expect = scan_expect g op.key }
    end
  | Churn_wal -> (
    match Rng.int g.rng 4 with
    | 0 | 1 -> find_loaded g
    | 2 -> insert_fresh g
    | _ -> remove_or_update g ~net:false)
  | Net_mixed -> (
    match Rng.int g.rng 20 with
    | r when r < 16 -> find_loaded g
    | 16 | 17 -> insert_fresh g
    | 18 ->
      let s = Rng.int g.rng g.w.keys in
      let tid = fresh_row g in
      Hashtbl.replace g.moved s tid;
      mk Update s ~tid ~expect:1
    | _ -> remove_or_update g ~net:true)

let tag_code = function Find -> 1 | Scan -> 2 | Insert -> 3 | Remove -> 4 | Update -> 5

(* FNV-1a over (tag, seq, tid) of every op drawn. *)
let mix h x = (h lxor x) * 0x100000001b3 land max_int

let next g =
  let op = draw g in
  g.digest <- mix (mix (mix g.digest (tag_code op.tag)) op.seq) op.tid;
  op

let call g = Array.init g.w.batch (fun _ -> next g)

(* An independent generator in the same state: draws from it leave [g]
   (and the shadow model the run checks against) untouched. *)
let copy g = { g with rng = Rng.copy g.rng; moved = Hashtbl.copy g.moved }

(* Live keys after everything drawn so far has been applied. *)
let live_keys g = g.w.keys + g.fresh_ins - g.fresh_rem
