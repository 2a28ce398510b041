(* Monotonic time and the traced run's in-memory span log. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Cost of one [now_ns] call, subtracted from per-operation timings. *)
let overhead_ns =
  lazy
    (let n = 200_000 in
     let t0 = now_ns () in
     for _ = 1 to n do
       ignore (Sys.opaque_identity (now_ns ()))
     done;
     float_of_int (now_ns () - t0) /. float_of_int n)

(* Spans: name, start, end and parent, kept in fixed arrays (slots are
   claimed atomically, so worker domains may record too) and written out
   once at exit.  Recording is off unless [enabled]. *)
module Spans = struct
  let cap = 1 lsl 18
  let enabled = ref false

  (* Parent of spans started without an explicit one. *)
  let ambient = ref (-1)
  let next = Atomic.make 0
  let names = Array.make cap ""
  let starts = Array.make cap 0
  let ends = Array.make cap 0
  let parents = Array.make cap (-1)

  (* Returns the span id, or -1 when off or full. *)
  let start ?(parent = !ambient) name =
    if not !enabled then -1
    else
      let id = Atomic.fetch_and_add next 1 in
      if id >= cap then -1
      else begin
        names.(id) <- name;
        parents.(id) <- parent;
        starts.(id) <- now_ns ();
        id
      end

  let stop id = if id >= 0 then ends.(id) <- now_ns ()

  let with_span ?parent name f =
    let id = start ?parent name in
    match f id with
    | v ->
      stop id;
      v
    | exception e ->
      stop id;
      raise e

  let recorded () = min cap (Atomic.get next)

  let dump path ~counts =
    let oc = open_out path in
    output_string oc "{\"counts\": {";
    List.iteri
      (fun i (k, v) ->
        Printf.fprintf oc "%s\"%s\": %d" (if i = 0 then "" else ", ") k v)
      counts;
    Printf.fprintf oc "},\n \"dropped\": %d,\n \"spans\": ["
      (Atomic.get next - recorded ());
    for i = 0 to recorded () - 1 do
      Printf.fprintf oc "%s\n  {\"id\": %d, \"name\": \"%s\", \"start_ns\": %d, \"end_ns\": %d, \"parent\": %d}"
        (if i = 0 then "" else ",")
        i names.(i) starts.(i) ends.(i) parents.(i)
    done;
    output_string oc "\n]}\n";
    close_out oc
end
