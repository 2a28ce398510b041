(* ei_obs trace ring: one fixed-size lock-free ring buffer of binary
   events per domain, exported as Chrome [trace_events] JSON.

   Each event is four words — a {!Ei_util.Bench_clock.now_ns} timestamp,
   an event id, and two payload words — written into the calling
   domain's own ring at a single-writer cursor, so the hot path is four
   array stores and a cursor bump with no locks and no allocation.  The
   ring wraps: a long run keeps the newest [ring_capacity] events per
   domain, which is exactly what a post-mortem wants.

   Event *kinds* are interned once, cold, through {!define}: a kind
   carries a name, a Chrome category, optional payload-argument names
   and whether the event is a span (payload word 0 is then a duration in
   nanoseconds and the event renders as a Chrome "X" complete event
   instead of an instant).

   The exporter merges every domain's ring, sorts by timestamp,
   normalises to the earliest event and emits
   [{"traceEvents": [...], ...}] — loadable in [chrome://tracing] and
   Perfetto, with each domain as its own track. *)

module Clock = Ei_util.Bench_clock
module Invariant = Ei_util.Invariant

(* Monomorphic int-keyed table for the exporter's per-trace slice
   counts (trace ids are ints; the seeded string table would be the
   wrong shape and the polymorphic default is linted out). *)
module Itbl = Hashtbl.Make (Int)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* --- Event kinds ------------------------------------------------------ *)

type kind = {
  ev_name : string;
  ev_cat : string;
  ev_span : bool;
  ev_arg0 : string;  (* "" = unnamed; spans render arg0 as the duration *)
  ev_arg1 : string;
}

let kinds_lock = Mutex.create ()
let[@ei.guarded_by "kinds_lock"] kinds : kind array ref = ref [||]

let kind_info id =
  let ks = !kinds in
  if id >= 0 && id < Array.length ks then (ks.(id).ev_name, ks.(id).ev_cat)
  else (Printf.sprintf "event-%d" id, "unknown")

let define ?(span = false) ?(arg0 = "") ?(arg1 = "") ~cat name =
  Mutex.lock kinds_lock;
  let ks = !kinds in
  let id = Array.length ks in
  kinds :=
    Array.append ks
      [| { ev_name = name; ev_cat = cat; ev_span = span; ev_arg0 = arg0; ev_arg1 = arg1 } |];
  Mutex.unlock kinds_lock;
  id

(* --- Rings ------------------------------------------------------------ *)

(* One ring per domain, written only by its owner; a reader walking the
   ring after the fact tolerates torn slots (see [drain]).  [rtr] holds
   the ambient {!Ctx} trace id (0 = no request in flight) and [rsl] the
   span/parent pair packed into one word. *)
type ring = {
  rdom : int;
  rts : int array;
  rev : int array;
  ra : int array;
  rb : int array;
  rtr : int array;
  rsl : int array;
  mutable cursor : int;  (* total events ever written; single writer *)
}
[@@ei.single_domain]

(* Span and parent ids share a word: 31 bits each fits any id a real
   run mints (ids are sequential) inside OCaml's 63-bit int. *)
let pack_link ~span ~parent =
  ((parent land 0x7fffffff) lsl 31) lor (span land 0x7fffffff)

let link_span sl = sl land 0x7fffffff
let link_parent sl = (sl lsr 31) land 0x7fffffff

let default_capacity = 32768
let capacity = Atomic.make default_capacity

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (p * 2)

let set_ring_capacity n =
  if n < 16 then Invariant.brokenf "Trace: ring capacity %d too small" n;
  Atomic.set capacity (pow2_at_least n 16)

let rings_lock = Mutex.create ()
let[@ei.guarded_by "rings_lock"] rings : ring list ref = ref []

let new_ring () =
  let cap = Atomic.get capacity in
  let r =
    {
      rdom = (Domain.self () :> int);
      rts = Array.make cap 0;
      rev = Array.make cap 0;
      ra = Array.make cap 0;
      rb = Array.make cap 0;
      rtr = Array.make cap 0;
      rsl = Array.make cap 0;
      cursor = 0;
    }
  in
  Mutex.lock rings_lock;
  rings := r :: !rings;
  Mutex.unlock rings_lock;
  r

(* Domain-local ring, created on a domain's first emission.  Rings of
   exited domains stay registered so their events survive into the
   export. *)
let ring_key = Domain.DLS.new_key new_ring

let write r ts id a b =
  let i = r.cursor land (Array.length r.rts - 1) in
  let c = Ctx.cell () in
  r.rts.(i) <- ts;
  r.rev.(i) <- id;
  r.ra.(i) <- a;
  r.rb.(i) <- b;
  r.rtr.(i) <- c.Ctx.c_trace;
  r.rsl.(i) <-
    (if c.Ctx.c_trace = 0 then 0
     else pack_link ~span:c.Ctx.c_span ~parent:c.Ctx.c_parent);
  r.cursor <- r.cursor + 1

let emit id a b =
  if Atomic.get on then
    write (Domain.DLS.get ring_key) (Clock.now_ns ()) id a b

let instant ?(a = 0) ?(b = 0) id = emit id a b

(* Span support: [start ()] reads the clock only when tracing is live;
   [span id ~start_ns b] then stamps the event at [start_ns] with the
   elapsed time as payload word 0.  A [start_ns] of 0 (tracing was off
   at the start of the section) drops the span. *)
let start () = if Atomic.get on then Clock.now_ns () else 0

let span id ~start_ns b =
  if Atomic.get on && start_ns > 0 then begin
    let dur = Clock.now_ns () - start_ns in
    write (Domain.DLS.get ring_key) start_ns id (if dur < 0 then 0 else dur) b
  end

let reset () =
  Mutex.lock rings_lock;
  List.iter (fun r -> r.cursor <- 0) !rings;
  Mutex.unlock rings_lock

(* --- Reading ---------------------------------------------------------- *)

(* Iterate the retained events of every ring, per ring in write order.
   Call after mutators quiesce: the rings are single-writer and the
   reader takes no lock against them. *)
let fold_events_ctx f acc =
  Mutex.lock rings_lock;
  let rs = List.rev !rings in
  Mutex.unlock rings_lock;
  List.fold_left
    (fun acc r ->
      let cap = Array.length r.rts in
      let first = if r.cursor > cap then r.cursor - cap else 0 in
      let acc = ref acc in
      for n = first to r.cursor - 1 do
        let i = n land (cap - 1) in
        let sl = r.rsl.(i) in
        acc :=
          f !acc ~domain:r.rdom ~ts:r.rts.(i) ~id:r.rev.(i) ~a:r.ra.(i)
            ~b:r.rb.(i) ~trace:r.rtr.(i) ~span:(link_span sl)
            ~parent:(link_parent sl)
      done;
      !acc)
    acc rs

let fold_events f acc =
  fold_events_ctx
    (fun acc ~domain ~ts ~id ~a ~b ~trace:_ ~span:_ ~parent:_ ->
      f acc ~domain ~ts ~id ~a ~b)
    acc

let events () = fold_events (fun n ~domain:_ ~ts:_ ~id:_ ~a:_ ~b:_ -> n + 1) 0

(* --- Chrome trace_events export --------------------------------------- *)

let export_json () =
  let ks = !kinds in
  let evs =
    fold_events_ctx
      (fun acc ~domain ~ts ~id ~a ~b ~trace ~span ~parent ->
        (ts, domain, id, a, b, trace, span, parent) :: acc)
      []
  in
  let evs =
    List.stable_sort
      (fun (t1, _, _, _, _, _, _, _) (t2, _, _, _, _, _, _, _) ->
        Int.compare t1 t2)
      evs
  in
  let t0 = match evs with (t, _, _, _, _, _, _, _) :: _ -> t | [] -> 0 in
  let doms =
    List.sort_uniq Int.compare (List.map (fun (_, d, _, _, _, _, _, _) -> d) evs)
  in
  let kind_of id =
    if id >= 0 && id < Array.length ks then ks.(id)
    else
      { ev_name = Printf.sprintf "event-%d" id; ev_cat = "unknown";
        ev_span = false; ev_arg0 = ""; ev_arg1 = "" }
  in
  (* Flow events stitch one trace's span events ("X" slices) into a
     Perfetto arrow chain; a trace needs at least two slices to draw
     one.  Count slices per trace up front so each slice can be tagged
     start ("s"), step ("t") or finish ("f") as it streams out. *)
  let flow_total = Itbl.create 64 in
  List.iter
    (fun (_, _, id, _, _, trace, _, _) ->
      if trace <> 0 && (kind_of id).ev_span then
        Itbl.replace flow_total trace
          (1 + Option.value ~default:0 (Itbl.find_opt flow_total trace)))
    evs;
  let flow_seen = Itbl.create 64 in
  let open Ei_util.Mini_json in
  let out = ref [] in
  let add fields = out := Obj fields :: !out in
  List.iter
    (fun d ->
      add
        [ ("name", Str "thread_name"); ("ph", Str "M"); ("pid", Int 1); ("tid", Int d);
          ("args", Obj [ ("name", Str (Printf.sprintf "domain %d" d)) ]) ])
    doms;
  List.iter
    (fun (ts, dom, id, a, b, trace, span, parent) ->
      let k = kind_of id in
      let us = Float (float_of_int (ts - t0) /. 1e3) in
      let arg dflt nm v = ((if nm = "" then dflt else nm), Int v) in
      let ctx_args =
        if trace = 0 then []
        else [ ("trace", Int trace); ("span", Int span); ("parent", Int parent) ]
      in
      let named = [ ("name", Str k.ev_name); ("cat", Str k.ev_cat) ] in
      let on_track = [ ("pid", Int 1); ("tid", Int dom) ] in
      if k.ev_span then
        add
          (named
          @ [ ("ph", Str "X"); ("ts", us); ("dur", Float (float_of_int a /. 1e3)) ]
          @ on_track
          @ [ ("args", Obj (arg "a1" k.ev_arg1 b :: ctx_args)) ])
      else
        add
          (named
          @ [ ("ph", Str "i"); ("s", Str "t"); ("ts", us) ]
          @ on_track
          @ [ ("args", Obj (arg "a0" k.ev_arg0 a :: arg "a1" k.ev_arg1 b :: ctx_args)) ]);
      if trace <> 0 && k.ev_span then begin
        match Itbl.find_opt flow_total trace with
        | Some total when total >= 2 ->
          let seen =
            1 + Option.value ~default:0 (Itbl.find_opt flow_seen trace)
          in
          Itbl.replace flow_seen trace seen;
          (* Same ts as the slice it binds to, emitted right after it,
             so the stream stays sorted by ts. *)
          let ph = if seen = 1 then "s" else if seen = total then "f" else "t" in
          add
            ([ ("name", Str "req"); ("cat", Str "flow"); ("ph", Str ph); ("ts", us) ]
            @ on_track
            @ (("id", Int trace) :: (if seen = 1 then [] else [ ("bp", Str "e") ])))
        | _ -> ()
      end)
    evs;
  to_string
    (Obj [ ("displayTimeUnit", Str "ms"); ("traceEvents", List (List.rev !out)) ])
  ^ "\n"

let write_json path =
  let oc = open_out path in
  output_string oc (export_json ());
  close_out oc
