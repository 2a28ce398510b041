(* Shared diagnostic report for the static-analysis tools.

   Both ei_lint (untyped-parsetree rules) and ei_race (typedtree
   concurrency rules) funnel their findings through this one type, so
   CI consumes a uniform shape from either tool: text diagnostics are
   [file:line:col: [rule] message] and JSON is
   [{"tool": ..., "findings": [{file, line, col, rule, message}, ...]}]
   plus tool-specific extra fields. *)

type diag = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

let compare_diag a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let pp_diag ppf d =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.msg

let of_location ~rule ~msg (loc : Location.t) ~file =
  let p = loc.Location.loc_start in
  {
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    msg;
  }

(* --- JSON ------------------------------------------------------------- *)

let diag_json d =
  Ei_util.Mini_json.(
    Obj
      [
        ("file", Str d.file);
        ("line", Int d.line);
        ("col", Int d.col);
        ("rule", Str d.rule);
        ("message", Str d.msg);
      ])

(* [extra] fields land after the findings array. *)
let to_json ~tool ?(extra = []) diags =
  Ei_util.Mini_json.(
    to_string
      (Obj
         ((("tool", Str tool) :: ("findings", List (List.map diag_json diags)) :: extra))))

type format = Text | Json

let parse_format = function
  | "text" -> Some Text
  | "json" -> Some Json
  | _ -> None

(* Recognise [--format=FMT] (or [--format FMT]) in an argument list,
   returning the format and the remaining arguments. *)
let split_format_arg args =
  let rec go fmt acc = function
    | [] -> Ok (fmt, List.rev acc)
    | "--format" :: v :: rest -> (
      match parse_format v with
      | Some f -> go (Some f) acc rest
      | None -> Error v)
    | a :: rest
      when String.length a > 9 && String.equal (String.sub a 0 9) "--format="
      -> (
      let v = String.sub a 9 (String.length a - 9) in
      match parse_format v with
      | Some f -> go (Some f) acc rest
      | None -> Error v)
    | a :: rest -> go fmt (a :: acc) rest
  in
  go None [] args
