module Json = Chipmunk.Json
module R = Chipmunk.Report

type t = {
  report : R.t;
  stats : Minimize.stats option;
  culprits : Minimize.culprit list;
}

let of_outcome (o : Minimize.outcome) =
  { report = o.Minimize.report; stats = Some o.Minimize.stats; culprits = o.Minimize.culprits }

let of_report report = { report; stats = None; culprits = [] }

let schema = "chipmunk-reproducer/1"

let culprit_json (c : Minimize.culprit) =
  Json.obj
    [
      ("seq", string_of_int c.Minimize.seq);
      ("addr", string_of_int c.Minimize.addr);
      ("len", string_of_int c.Minimize.len);
      ("kind", Json.str c.Minimize.kind);
      ("func", Json.str c.Minimize.func);
      ("syscall", Json.int_opt c.Minimize.syscall);
      ( "syscall_name",
        match c.Minimize.syscall_name with None -> "null" | Some s -> Json.str s );
    ]

let stats_json (s : Minimize.stats) =
  Json.obj
    [
      ("ops_before", string_of_int s.Minimize.ops_before);
      ("ops_after", string_of_int s.Minimize.ops_after);
      ("subset_before", string_of_int s.Minimize.subset_before);
      ("subset_after", string_of_int s.Minimize.subset_after);
      ("harness_runs", string_of_int s.Minimize.harness_runs);
      ("check_runs", string_of_int s.Minimize.check_runs);
    ]

let to_json t =
  Json.obj
    ([ ("schema", Json.str schema); ("report", R.to_json t.report) ]
    @ (match t.stats with None -> [] | Some s -> [ ("minimize", stats_json s) ])
    @
    match t.culprits with
    | [] -> []
    | cs -> [ ("culprits", Json.arr (List.map culprit_json cs)) ])

let ( let* ) = Result.bind

let int_member name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "culprit/stats field %S: expected an integer" name)

let stats_of_json j =
  let* ops_before = int_member "ops_before" j in
  let* ops_after = int_member "ops_after" j in
  let* subset_before = int_member "subset_before" j in
  let* subset_after = int_member "subset_after" j in
  let* harness_runs = int_member "harness_runs" j in
  let* check_runs = int_member "check_runs" j in
  Ok { Minimize.ops_before; ops_after; subset_before; subset_after; harness_runs; check_runs }

let culprit_of_json j =
  let* seq = int_member "seq" j in
  let* addr = int_member "addr" j in
  let* len = int_member "len" j in
  let str name =
    match Json.member name j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "culprit field %S: expected a string" name)
  in
  let* kind = str "kind" in
  let* func = str "func" in
  let syscall =
    match Json.member "syscall" j with Some (Json.Int i) -> Some i | _ -> None
  in
  let syscall_name =
    match Json.member "syscall_name" j with Some (Json.Str s) -> Some s | _ -> None
  in
  Ok { Minimize.seq; addr; len; kind; func; syscall; syscall_name }

let of_json text =
  let* j = Json.parse text in
  match Json.member "report" j with
  | None ->
    (* A bare Report.to_json document. *)
    let* report = R.of_json_value j in
    Ok (of_report report)
  | Some rj ->
    let* report = R.of_json_value rj in
    let* stats =
      match Json.member "minimize" j with
      | None -> Ok None
      | Some sj -> Result.map Option.some (stats_of_json sj)
    in
    let* culprits =
      match Json.member "culprits" j with
      | None -> Ok []
      | Some (Json.Arr l) ->
        List.fold_left
          (fun acc cj ->
            let* acc = acc in
            let* c = culprit_of_json cj in
            Ok (c :: acc))
          (Ok []) l
        |> Result.map List.rev
      | Some _ -> Error "field \"culprits\": expected an array"
    in
    Ok { report; stats; culprits }

let save ~path t =
  let oc = open_out path in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc

let load ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    of_json text

let pp ppf t =
  R.pp ppf t.report;
  (match t.stats with
  | None -> ()
  | Some s ->
    Format.fprintf ppf
      "minimized: %d -> %d ops, %d -> %d replayed writes (%d harness runs, %d rebuilds)@."
      s.Minimize.ops_before s.Minimize.ops_after s.Minimize.subset_before
      s.Minimize.subset_after s.Minimize.harness_runs s.Minimize.check_runs);
  match t.culprits with
  | [] -> ()
  | cs ->
    Format.fprintf ppf "culprit writes:@.";
    List.iter
      (fun (c : Minimize.culprit) ->
        Format.fprintf ppf "  seq %d: %s %s [%d, %d) %d bytes%s@." c.Minimize.seq
          c.Minimize.kind c.Minimize.func c.Minimize.addr
          (c.Minimize.addr + c.Minimize.len) c.Minimize.len
          (match c.Minimize.syscall_name with
          | Some s -> " during " ^ s
          | None -> ""))
      cs
