(** The WAL record codec: the tags and fields of WAL records inside
    the {!Envelope} frame, whose payload id is the record's LSN.
    Decoding is {e total}: truncated, torn or bit-flipped input yields
    [Error], never an exception and never a wrong record — what makes
    torn-tail truncation during recovery safe. *)

type record =
  | Insert of { lsn : int; key : string; tid : int }
  | Remove of { lsn : int; key : string }
  | Update of { lsn : int; key : string; tid : int }
  | Bound of { lsn : int; bound : int }
      (** elastic size-bound retune, logged so the elasticity state
          survives restart (checkpoints record it too) *)

val lsn : record -> int

val describe : record -> string
(** One human-readable line (hex keys) for [ei wal inspect]. *)

val encode : record -> string
(** A complete frame.  Raises [Invalid_argument] on a negative LSN or
    a key longer than 65535 bytes (never produced by the writer). *)

val encode_into : Buffer.t -> record -> unit

val decode : string -> pos:int -> (record * int, string) result
(** [decode s ~pos] reads one frame starting at [pos] and returns the
    record plus the position one past it; any malformation is
    [Error]. *)

val decode_all : string -> record list * (int * string) option
(** Decode frames from position 0 until the end of the string or the
    first malformed frame; returns the good prefix and, if decoding
    stopped early, the byte offset and reason — the torn-tail
    truncation point. *)
