(* Shared adversarial property harness for the repo's CRC-framed
   codecs.  The WAL frame codec ([Ei_wal.Frame]) and the network wire
   codec ([Ei_net.Wire]) share one frame shape —

     u32 payload_len | u32 crc32(payload) | payload

   — so they share one battery of adversaries: every single-bit flip,
   every truncation, and a set of length-field lies.  A codec plugs in
   as an encoder plus a [verdict] view of its decoder; the contract
   under attack is the same for both ("a damaged frame is never
   accepted"), while what rejection looks like differs — the WAL
   decoder works on a complete file image, so everything is [Rejected];
   the incremental wire decoder may legitimately answer [Incomplete]
   (more bytes could still arrive) as long as it never accepts. *)

type verdict = Accepted | Rejected | Incomplete

let verdict_name = function
  | Accepted -> "accepted"
  | Rejected -> "rejected"
  | Incomplete -> "incomplete"

let flip_bit s i =
  let b = Bytes.of_string s in
  Bytes.set b (i / 8)
    (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
  Bytes.to_string b

(* Rewrite the little-endian u32 length field at offset 0. *)
let patch_len s v =
  let b = Bytes.of_string s in
  Bytes.set_int32_le b 0 (Int32.of_int (v land 0xffffffff));
  Bytes.to_string b

(* Exhaustive single-bit-flip sweep: CRC-32 guarantees detection of any
   single-bit error within a frame, so every flip of every encoded
   vector must fail [allowed]'s complement — i.e. never be [Accepted]
   and never fall outside the codec's legal failure modes. *)
let check_bit_flips ~what ~describe ~encode ~verdict ~allowed values =
  List.iter
    (fun v ->
      let s = encode v in
      for i = 0 to (String.length s * 8) - 1 do
        let verd = verdict (flip_bit s i) in
        if not (allowed verd) then
          Alcotest.failf "%s: bit flip %d of %s was %s" what i (describe v)
            (verdict_name verd)
      done)
    values

(* Every proper prefix of a frame must be refused (or held as
   incomplete) — never decoded to a value. *)
let check_truncations ~what ~describe ~encode ~verdict ~allowed values =
  List.iter
    (fun v ->
      let s = encode v in
      for n = 0 to String.length s - 1 do
        let verd = verdict (String.sub s 0 n) in
        if not (allowed verd) then
          Alcotest.failf "%s: truncation to %d of %s was %s" what n
            (describe v) (verdict_name verd)
      done)
    values

(* Length-field lies: shorter than the payload (the CRC must catch the
   misframing), longer (must wait or reject, never read past the
   payload into garbage), and implausible extremes (must be rejected
   outright — the bounded-buffering defense). *)
let check_length_lies ~what ~describe ~encode ~verdict ~allowed values =
  List.iter
    (fun v ->
      let s = encode v in
      let real = String.length s - 8 in
      let lies =
        [ 0; 1; real - 1; real + 1; real + 9; 0x7fffffff; 0xffffffff ]
      in
      List.iter
        (fun lie ->
          if lie <> real && lie >= 0 then begin
            let verd = verdict (patch_len s lie) in
            if not (allowed verd) then
              Alcotest.failf "%s: length lie %d (real %d) of %s was %s" what
                lie real (describe v) (verdict_name verd)
          end)
        lies)
    values

(* Randomized single-bit flip as a qcheck property over the codec's own
   generator — the probabilistic arm backing the exhaustive fixed-vector
   sweeps above. *)
let prop_random_flip ~name ~arb ~encode ~verdict ~allowed =
  QCheck.Test.make ~name ~count:500
    QCheck.(pair arb (make QCheck.Gen.(int_bound 100_000)))
    (fun (v, i) ->
      let s = encode v in
      allowed (verdict (flip_bit s (i mod (String.length s * 8)))))

(* Golden byte vectors pin the format itself: the WAL on disk and the
   bytes on the wire.  Each [(value, hex)] must encode to exactly
   [hex] and decode back to [value]; a failure here means a log written
   by an earlier build could no longer be read. *)
let check_golden ~what ~describe ~encode ~decodes vectors =
  let to_hex s =
    String.concat ""
      (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
  in
  List.iter
    (fun (v, hex) ->
      let got = to_hex (encode v) in
      if not (String.equal got hex) then
        Alcotest.failf "%s: %s encodes to %s, golden %s" what (describe v) got hex;
      if not (decodes (encode v) v) then
        Alcotest.failf "%s: golden bytes of %s do not decode back" what
          (describe v))
    vectors
