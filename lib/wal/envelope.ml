(* The CRC-framed envelope of the WAL and wire codecs.  Field readers
   run over a payload whose CRC already passed, so a field error can
   only come from an encoder this reader does not know: still rejected,
   never guessed at. *)

let header_bytes = 8

(* Smallest well-formed payload: tag + id. *)
let min_payload = 9

let payload ~what ~tag ?key id =
  if id < 0 then invalid_arg (what ^ ": negative id");
  let b = Buffer.create 32 in
  Buffer.add_uint8 b tag;
  Buffer.add_int64_le b (Int64.of_int id);
  Option.iter
    (fun key ->
      if String.length key > 0xffff then invalid_arg (what ^ ": key too long");
      Buffer.add_uint16_le b (String.length key);
      Buffer.add_string b key)
    key;
  b

let add buf payload =
  let p = Buffer.contents payload in
  Buffer.add_int32_le buf (Int32.of_int (String.length p));
  Buffer.add_int32_le buf (Int32.of_int (Crc32.string p));
  Buffer.add_string buf p

(* A cursor lives for one [read] call, inside one domain. *)
type cursor = { s : string; mutable at : int [@ei.single_domain]; stop : int }

exception Bad_field of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_field m)) fmt

let take c n what =
  if c.at + n > c.stop then raise (Bad_field ("truncated " ^ what));
  let p = c.at in
  c.at <- p + n;
  p

let u8 c = Char.code c.s.[take c 1 "tag"]
let u32_at s p = Int32.to_int (String.get_int32_le s p) land 0xffffffff
let u32 c = u32_at c.s (take c 4 "u32")

let int ?(min = 0) ~what c =
  let v = String.get_int64_le c.s (take c 8 what) in
  if Int64.compare v (Int64.of_int min) < 0 || Int64.compare v (Int64.of_int max_int) > 0
  then raise (Bad_field ("bad " ^ what))
  else Int64.to_int v

let key c =
  let len = String.get_uint16_le c.s (take c 2 "key length") in
  String.sub c.s (take c len "key") len

type error = Short | Bad of string

let read ~max_payload parse s ~pos =
  let n = String.length s in
  if pos < 0 || pos > n then Error (Bad "position out of range")
  else if n - pos < header_bytes then Error Short
  else begin
    let len = u32_at s pos in
    if len < min_payload || len > max_payload then
      Error (Bad (Printf.sprintf "implausible payload length %d" len))
    else if n - pos - header_bytes < len then Error Short
    else begin
      let base = pos + header_bytes in
      if Crc32.string ~pos:base ~len s <> u32_at s (pos + 4) then
        Error (Bad "crc mismatch")
      else
        let c = { s; at = base; stop = base + len } in
        match parse c with
        | v when c.at = c.stop -> Ok (v, c.stop)
        | _ -> Error (Bad "payload length mismatch")
        | exception Bad_field msg -> Error (Bad msg)
    end
  end
