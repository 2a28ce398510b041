(** Minimal JSON value type, writer and parser: the repository's only
    JSON writer (it has no JSON dependency).  Objects, arrays, strings
    with standard escapes, integers, floats, booleans, null. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One-line serialisation with [", "] and [": "] separators.  Floats
    print in their shortest round-tripping form, so [parse (to_string
    v) = Ok v] whenever every float in [v] is finite. *)

val append_line : string -> t -> unit
(** Append [v] and a newline to the file (a JSON-Lines row). *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries the byte position
    of the failure. *)

val member : string -> t -> t option
(** Field of an object, [None] on missing field or non-object. *)

val as_int : t -> int option
val as_float : t -> float option
(** Also accepts an [Int] (JSON does not distinguish). *)

val as_str : t -> string option
val as_bool : t -> bool option
val as_list : t -> t list option
