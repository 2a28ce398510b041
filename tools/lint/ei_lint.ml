(* ei_lint: project lint driver.

   Usage: ei_lint [--rules] [--format=text|json] [DIR|FILE ...]
   (default scope: lib)

   Walks the given trees, lints every .ml/.mli through the rule table
   in {!Lint_rules}, prints file:line:col diagnostics (or one JSON
   object with --format=json), and exits 1 if anything fired.  Wired to
   the @lint alias: `dune build @lint`. *)

let rec collect path acc =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "ei_lint: no such file or directory: %s\n" path;
    exit 2
  end
  else if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> collect (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else if
    Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.exists (String.equal "--rules") args then begin
    print_endline (Lint_rules.rules_help ());
    exit 0
  end;
  let fmt, args =
    match Report.split_format_arg args with
    | Ok (fmt, rest) -> (Option.value fmt ~default:Report.Text, rest)
    | Error v ->
      Printf.eprintf "ei_lint: unknown format %S (expected text or json)\n" v;
      exit 2
  in
  let roots = match args with [] -> [ "lib" ] | _ -> args in
  let files =
    List.sort String.compare
      (List.fold_left (fun acc root -> collect root acc) [] roots)
  in
  let ml_files =
    (* Only library modules owe an interface; harness and bench drivers
       are executables. *)
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".ml" && Lint_rules.in_lib f then
          Some (f, f)
        else None)
      files
  in
  let diags =
    List.concat_map (fun f -> Lint_rules.lint_file ~path:f ~display:f) files
    @ Lint_rules.check_mli_coverage ~ml_files
  in
  let diags = List.sort_uniq Lint_rules.compare_diag diags in
  let text = match fmt with Report.Text -> true | Report.Json -> false in
  if text then
    List.iter (fun d -> Format.printf "%a@." Lint_rules.pp_diag d) diags
  else begin
    let extra = [ ("files_scanned", Ei_util.Mini_json.Int (List.length files)) ] in
    print_endline (Report.to_json ~tool:"ei_lint" ~extra diags)
  end;
  match diags with
  | [] ->
    if text then Format.printf "ei_lint: %d files clean@." (List.length files);
    exit 0
  | _ ->
    if text then
      Format.printf "ei_lint: %d finding(s) in %d files@." (List.length diags)
        (List.length files);
    exit 1
