(* Length-prefixed, CRC-framed binary codec for WAL records.

   Wire layout of one frame (all integers little-endian):

     u32 payload_len | u32 crc32(payload) | payload

   payload = u8 tag | u64 lsn | tag-specific fields
     tag 1 Insert : u16 key_len | key bytes | u64 tid
     tag 2 Remove : u16 key_len | key bytes
     tag 3 Update : u16 key_len | key bytes | u64 tid
     tag 4 Bound  : u64 bound

   The envelope (header, length bounds, CRC, field readers, exact
   consumption) is {!Envelope}; this module owns the tags and their
   fields.  Decoding is total: every failure is an [Error]. *)

type record =
  | Insert of { lsn : int; key : string; tid : int }
  | Remove of { lsn : int; key : string }
  | Update of { lsn : int; key : string; tid : int }
  | Bound of { lsn : int; bound : int }

let lsn = function
  | Insert { lsn; _ } | Remove { lsn; _ } | Update { lsn; _ } | Bound { lsn; _ }
    ->
    lsn

let hex = Ei_util.Key.to_hex

let describe = function
  | Insert { lsn; key; tid } ->
    Printf.sprintf "%d insert %s tid=%d" lsn (hex key) tid
  | Remove { lsn; key } -> Printf.sprintf "%d remove %s" lsn (hex key)
  | Update { lsn; key; tid } ->
    Printf.sprintf "%d update %s tid=%d" lsn (hex key) tid
  | Bound { lsn; bound } -> Printf.sprintf "%d bound %d" lsn bound

(* Keys are short fixed-length byte strings (u16 length field); the
   largest payload is tag + lsn + key_len + key + tid. *)
let max_payload = 1 + 8 + 2 + 0xffff + 8

(* --- Encoding -------------------------------------------------------- *)

let encode_into buf r =
  let payload = Envelope.payload ~what:"Frame.encode" in
  let with_int p v =
    Buffer.add_int64_le p (Int64.of_int v);
    p
  in
  Envelope.add buf
    (match r with
    | Insert { lsn; key; tid } -> with_int (payload ~tag:1 ~key lsn) tid
    | Remove { lsn; key } -> payload ~tag:2 ~key lsn
    | Update { lsn; key; tid } -> with_int (payload ~tag:3 ~key lsn) tid
    | Bound { lsn; bound } -> with_int (payload ~tag:4 lsn) bound)

let encode r =
  let buf = Buffer.create 48 in
  encode_into buf r;
  Buffer.contents buf

(* --- Decoding -------------------------------------------------------- *)

let parse c =
  let tag = Envelope.u8 c in
  let lsn = Envelope.int ~what:"lsn" c in
  match tag with
  | 1 ->
    let key = Envelope.key c in
    Insert { lsn; key; tid = Envelope.int ~what:"tid" c }
  | 2 -> Remove { lsn; key = Envelope.key c }
  | 3 ->
    let key = Envelope.key c in
    Update { lsn; key; tid = Envelope.int ~what:"tid" c }
  | 4 -> Bound { lsn; bound = Envelope.int ~what:"bound" c }
  | t -> Envelope.bad "unknown tag %d" t

let decode s ~pos =
  match Envelope.read ~max_payload parse s ~pos with
  | Ok _ as ok -> ok
  | Error Envelope.Short -> Error "truncated frame"
  | Error (Envelope.Bad msg) -> Error msg

let decode_all s =
  let n = String.length s in
  let rec go pos acc =
    if pos = n then (List.rev acc, None)
    else
      match decode s ~pos with
      | Ok (r, next) -> go next (r :: acc)
      | Error msg -> (List.rev acc, Some (pos, msg))
  in
  go 0 []
