(** The network protocol codec: the tags and fields of requests and
    replies inside the {!Ei_wal.Envelope} frame, whose payload id is
    the request id.  Requests carry an operation over a key (tags 1–5:
    insert, remove, update, find, scan); replies carry the typed
    outcome (tags 16–19: applied-with-result, rejected, timed-out,
    busy).  Clients never supply row ids: the server assigns tids, and
    [Find] returns the tid as an opaque handle.

    The decoder is total and incremental: missing bytes are {!More}
    (feed the rest), every definite protocol violation is {!Corrupt},
    never an exception and never a wrong value. *)

type op =
  | Insert of string
  | Remove of string
  | Update of string
  | Find of string
  | Scan of string * int  (** start key, entry count *)

type request = { id : int; op : op }

(** Typed outcome on the wire — the net-facing image of
    {!Ei_shard.Serve.outcome} plus the backpressure shed. *)
type status =
  | Applied of int
      (** applied; insert / remove / update 1 if it took effect else
          0, find the tid or -1, scan the visited count *)
  | Rejected
      (** shed by a transient server-side fault; not applied, safe to
          retry *)
  | Timed_out
      (** not acknowledged before the server's deadline; may or may
          not have been applied *)
  | Busy
      (** shed by backpressure before submission (the connection's
          pipelining window was exceeded); not applied, retry after
          draining *)

type reply = { rid : int; status : status }

(** Incremental decode outcome. *)
type 'a progress =
  | Done of 'a * int  (** the value and the position after its frame *)
  | More  (** the frame's remaining bytes have not arrived yet *)
  | Corrupt of string
      (** definite protocol violation: tear the connection down *)

val op_key : op -> string

val describe_request : request -> string
val describe_reply : reply -> string
(** One-line renderings for diagnostics and test oracles. *)

val encode_request_into : Buffer.t -> request -> unit
val encode_request : request -> string
(** Raise [Invalid_argument] on a negative id, a key longer than
    65535 bytes, or a scan count outside [u32]. *)

val encode_reply_into : Buffer.t -> reply -> unit
val encode_reply : reply -> string

val decode_request : string -> pos:int -> request progress
val decode_reply : string -> pos:int -> reply progress
(** Decode one frame starting at [pos] (see {!Ei_wal.Envelope.read}). *)
