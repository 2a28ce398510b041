(** The CRC-framed envelope of the WAL record codec ({!Frame}) and the
    network wire codec ([Ei_net.Wire]):
    [u32 payload_len | u32 crc32(payload) | payload], little-endian,
    where every payload starts [u8 tag | u64 id].  The codecs own only
    their tags and fields.  Reading is total: a malformed frame is an
    error value, never an exception. *)

val payload : what:string -> tag:int -> ?key:string -> int -> Buffer.t
(** Start a payload: tag, [u64 id] and, given a [key], [u16 key_len |
    key].  [Invalid_argument] (prefixed [what]) on a negative [id] or a
    key over 65535 bytes. *)

val add : Buffer.t -> Buffer.t -> unit
(** [add buf payload] appends the framed [payload] to [buf]. *)

type cursor
(** A read position inside one CRC-verified payload. *)

val u8 : cursor -> int
val u32 : cursor -> int

val int : ?min:int -> what:string -> cursor -> int
(** A [u64] in [\[min, max_int\]] (default [min = 0]). *)

val key : cursor -> string
(** A [u16]-length-prefixed key. *)

val bad : ('a, unit, string, 'b) format4 -> 'a
(** Reject the payload with a formatted message. *)

type error = Short  (** bytes still missing *) | Bad of string

val read :
  max_payload:int -> (cursor -> 'a) -> string -> pos:int -> ('a * int, error) result
(** [read ~max_payload parse s ~pos] checks the frame at [pos] (length
    in [\[9, max_payload\]] before any wait for bytes, then the CRC),
    parses the payload, requires it consumed exactly, and returns the
    value and the position after the frame.  A field reader running
    past the payload or a failed {!bad} make it [Bad]. *)
