(* Length-prefixed, CRC-framed binary codec for the network protocol.

   Wire layout of one frame (all integers little-endian) — the same
   envelope as the WAL codec ({!Ei_wal.Frame}):

     u32 payload_len | u32 crc32(payload) | payload

   Request payload = u8 tag | u64 id | tag-specific fields
     tag 1 Insert : u16 key_len | key bytes
     tag 2 Remove : u16 key_len | key bytes
     tag 3 Update : u16 key_len | key bytes
     tag 4 Find   : u16 key_len | key bytes
     tag 5 Scan   : u16 key_len | key bytes | u32 count

   Reply payload = u8 tag | u64 id | tag-specific fields
     tag 16 Applied   : i64 result
     tag 17 Rejected  : (empty)
     tag 18 Timed_out : (empty)
     tag 19 Busy      : (empty)

   Clients never hand the server a row id: the server owns the row
   table and assigns tids on insert/update; [Find] returns the tid as
   its result, so a tid is an opaque handle on the wire.

   The envelope (header, length bounds, CRC, field readers, exact
   consumption) is {!Ei_wal.Envelope}; this module owns the tags and
   their fields.  The decoder is total and incremental: a frame whose
   remaining bytes have not arrived yet is [More], any definite
   protocol violation is [Corrupt]. *)

module Envelope = Ei_wal.Envelope

type op =
  | Insert of string
  | Remove of string
  | Update of string
  | Find of string
  | Scan of string * int

type request = { id : int; op : op }

type status =
  | Applied of int
  | Rejected
  | Timed_out
  | Busy

type reply = { rid : int; status : status }

type 'a progress =
  | Done of 'a * int
  | More
  | Corrupt of string

let op_key = function
  | Insert k | Remove k | Update k | Find k | Scan (k, _) -> k

let hex = Ei_util.Key.to_hex

let describe_request { id; op } =
  match op with
  | Insert k -> Printf.sprintf "%d insert %s" id (hex k)
  | Remove k -> Printf.sprintf "%d remove %s" id (hex k)
  | Update k -> Printf.sprintf "%d update %s" id (hex k)
  | Find k -> Printf.sprintf "%d find %s" id (hex k)
  | Scan (k, n) -> Printf.sprintf "%d scan %s n=%d" id (hex k) n

let describe_reply { rid; status } =
  match status with
  | Applied r -> Printf.sprintf "%d applied %d" rid r
  | Rejected -> Printf.sprintf "%d rejected" rid
  | Timed_out -> Printf.sprintf "%d timed-out" rid
  | Busy -> Printf.sprintf "%d busy" rid

(* Keys are short byte strings (u16 length field); the largest payload
   is tag + id + key_len + key + scan count. *)
let max_payload = 1 + 8 + 2 + 0xffff + 4

(* --- Encoding -------------------------------------------------------- *)

let encode_request_into buf { id; op } =
  let payload tag key = Envelope.payload ~what:"Wire.encode" ~tag ~key id in
  Envelope.add buf
    (match op with
    | Insert k -> payload 1 k
    | Remove k -> payload 2 k
    | Update k -> payload 3 k
    | Find k -> payload 4 k
    | Scan (k, n) ->
      if n < 0 || n > 0xffffffff then invalid_arg "Wire.encode: bad scan count";
      let p = payload 5 k in
      Buffer.add_int32_le p (Int32.of_int n);
      p)

let encode_request r =
  let buf = Buffer.create 48 in
  encode_request_into buf r;
  Buffer.contents buf

let encode_reply_into buf { rid; status } =
  let payload tag = Envelope.payload ~what:"Wire.encode" ~tag rid in
  Envelope.add buf
    (match status with
    | Applied r ->
      let p = payload 16 in
      Buffer.add_int64_le p (Int64.of_int r);
      p
    | Rejected -> payload 17
    | Timed_out -> payload 18
    | Busy -> payload 19)

let encode_reply r =
  let buf = Buffer.create 32 in
  encode_reply_into buf r;
  Buffer.contents buf

(* --- Decoding -------------------------------------------------------- *)

let parse_request c =
  let tag = Envelope.u8 c in
  let id = Envelope.int ~what:"request id" c in
  let key = Envelope.key in
  match tag with
  | 1 -> { id; op = Insert (key c) }
  | 2 -> { id; op = Remove (key c) }
  | 3 -> { id; op = Update (key c) }
  | 4 -> { id; op = Find (key c) }
  | 5 ->
    let k = key c in
    { id; op = Scan (k, Envelope.u32 c) }
  | t -> Envelope.bad "unknown request tag %d" t

(* Operation results are at least -1 ([Find] misses report -1). *)
let parse_reply c =
  let tag = Envelope.u8 c in
  let rid = Envelope.int ~what:"reply id" c in
  match tag with
  | 16 -> { rid; status = Applied (Envelope.int ~min:(-1) ~what:"result" c) }
  | 17 -> { rid; status = Rejected }
  | 18 -> { rid; status = Timed_out }
  | 19 -> { rid; status = Busy }
  | t -> Envelope.bad "unknown reply tag %d" t

let decode parse s ~pos =
  match Envelope.read ~max_payload parse s ~pos with
  | Ok (v, next) -> Done (v, next)
  | Error Envelope.Short -> More
  | Error (Envelope.Bad msg) -> Corrupt msg

let decode_request s ~pos = decode parse_request s ~pos
let decode_reply s ~pos = decode parse_reply s ~pos
