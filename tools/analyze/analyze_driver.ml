(* Shared driver for the [ei_race] executable and the [ei analyze] CLI
   subcommand: root resolution, cmt collection, baseline diffing and
   the text/JSON renderings. *)

let default_roots =
  [
    "lib/olc"; "lib/shard"; "lib/core"; "lib/fault"; "lib/obs"; "lib/btree";
    "lib/wal";
  ]

let rec collect path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> collect (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

type run = {
  diags : Report.diag list;  (* post-baseline, sorted *)
  suppressed : int;  (* findings matched by the baseline *)
  unused : string list;  (* baseline entries nothing matched *)
  inventory : Analyze_rules.inv_entry list;
  cmts_scanned : int;
}

let read_file f =
  let ic = open_in_bin f in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  content

(* Collect a root's cmts; when the path as given holds none (a source
   checkout — cmts live in the build tree), fall back to
   _build/default/<root>, so [ei analyze lib/olc] works from a repo
   root and from inside _build/default alike. *)
let collect_root r =
  let fallback =
    let p = Filename.concat (Filename.concat "_build" "default") r in
    if Sys.file_exists p then Some p else None
  in
  match (Sys.file_exists r, fallback) with
  | false, None ->
    Error (Printf.sprintf "no such file or directory: %s" r)
  | false, Some p -> Ok (collect p [])
  | true, fb -> (
    match (collect r [], fb) with
    | [], Some p -> Ok (collect p [])
    | cmts, _ -> Ok cmts)

let execute ?baseline_file roots =
  let roots = match roots with [] -> default_roots | _ -> roots in
  match
    List.partition_map
      (fun r ->
        match collect_root r with
        | Ok cmts -> Either.Left cmts
        | Error msg -> Either.Right msg)
      roots
  with
  | _, msg :: _ -> Error msg
  | per_root, [] -> (
    let cmts = List.sort String.compare (List.concat per_root) in
    let result = Analyze_rules.analyze_cmts cmts in
    match baseline_file with
    | Some f when not (Sys.file_exists f) ->
      Error (Printf.sprintf "baseline file not found: %s" f)
    | _ ->
      let baseline =
        match baseline_file with
        | None -> []
        | Some f -> Analyze_rules.parse_baseline (read_file f)
      in
      let remaining, suppressed, unused =
        Analyze_rules.apply_baseline ~baseline result.findings
      in
      let diags =
        List.sort Report.compare_diag
          (List.map
             (fun (f : Analyze_rules.finding) -> f.diag)
             remaining)
      in
      Ok
        {
          diags;
          suppressed;
          unused;
          inventory = result.inventory;
          cmts_scanned = List.length cmts;
        })

let print_text ~show_inventory r =
  List.iter (fun d -> Format.printf "%a@." Report.pp_diag d) r.diags;
  if show_inventory then begin
    Format.printf "-- shared-state inventory (%d entries)@."
      (List.length r.inventory);
    List.iter
      (fun (i : Analyze_rules.inv_entry) ->
        Format.printf "%s:%d: %-14s %-28s %s@." i.inv_file i.inv_line
          i.inv_kind i.inv_name
          (match i.inv_guard with Some g -> g | None -> "UNANNOTATED"))
      r.inventory
  end;
  List.iter
    (fun b -> Printf.eprintf "ei_race: unused baseline entry: %s\n" b)
    r.unused;
  Format.printf "ei_race: %d finding(s), %d baselined, %d modules@."
    (List.length r.diags) r.suppressed
    (List.length
       (List.sort_uniq String.compare
          (List.map (fun (d : Report.diag) -> d.Report.file) r.diags)))

let json_string r =
  let open Ei_util.Mini_json in
  let inv (i : Analyze_rules.inv_entry) =
    Obj
      [
        ("file", Str i.inv_file);
        ("line", Int i.inv_line);
        ("name", Str i.inv_name);
        ("kind", Str i.inv_kind);
        ("guard", match i.inv_guard with Some g -> Str g | None -> Null);
      ]
  in
  Report.to_json ~tool:"ei_race"
    ~extra:
      [
        ("inventory", List (List.map inv r.inventory));
        ("baselined", Int r.suppressed);
        ("unused_baseline", List (List.map (fun b -> Str b) r.unused));
        ("cmts_scanned", Int r.cmts_scanned);
      ]
    r.diags

(* Exit status shared by both frontends: 1 iff findings remain. *)
let exit_code r = match r.diags with [] -> 0 | _ -> 1
