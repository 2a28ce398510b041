(* CRC-32 (IEEE 802.3, reflected, polynomial 0xedb88320) over bytes.

   Table-driven.  The 256 table words are built when the module is
   initialised, never lazily: two domains forcing one [lazy] at the
   same time raise [CamlinternalLazy.Undefined], and two shard WAL
   writers committing their first batch together do exactly that.  The words live in an immutable string, one native-endian
   64-bit slot each, so every domain may read the table with no guard;
   the unchecked 8-byte load keeps the lookup as cheap as an int-array
   read.  The 32-bit digest fits a non-negative OCaml int on 64-bit
   platforms, which is all this repository targets. *)

external get64u : string -> int -> int64 = "%caml_string_get64u"

let table =
  let b = Bytes.create (256 * 8) in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    Bytes.set_int64_ne b (n * 8) (Int64.of_int !c)
  done;
  Bytes.unsafe_to_string b

(* The index is masked to [0, 255], so the load stays inside [table]. *)
let update_byte crc b =
  Int64.to_int (get64u table (((crc lxor b) land 0xff) lsl 3)) lxor (crc lsr 8)

let bytes ?(pos = 0) ?len (b : Bytes.t) =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes";
  let crc = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    crc := update_byte !crc (Char.code (Bytes.unsafe_get b i))
  done;
  !crc lxor 0xffffffff

let string ?pos ?len s = bytes ?pos ?len (Bytes.unsafe_of_string s)
