type crash_point = {
  fence_no : int;
  during_syscall : int option;
  after_syscall : int option;
  subset : int list;
  in_flight : int;
}

type kind =
  | Unmountable of string
  | Recovery_fault of string
  | Atomicity of { syscall : string; diffs : string list }
  | Synchrony of { syscall : string; diffs : string list }
  | Torn_data of { path : string; detail : string }
  | Inaccessible of { path : string; error : string }
  | Unusable of string

type t = {
  fs : string;
  workload : Vfs.Syscall.t list;
  crash_point : crash_point;
  kind : kind;
}

let kind_label = function
  | Unmountable _ -> "unmountable"
  | Recovery_fault _ -> "recovery-fault"
  | Atomicity _ -> "atomicity"
  | Synchrony _ -> "synchrony"
  | Torn_data _ -> "torn-data"
  | Inaccessible _ -> "inaccessible"
  | Unusable _ -> "unusable"

(* Strip volatile detail (numbers that vary per crash state) so that the
   same root cause folds to the same fingerprint. *)
let normalize s =
  String.map (fun c -> if c >= '0' && c <= '9' then '#' else c) s

let syscall_name = function
  | None -> "-"
  | Some s -> (
    match String.index_opt s ' ' with None -> s | Some i -> String.sub s 0 i)

let first_word s = syscall_name (Some s)

let first_word_of_call workload idx =
  match List.nth_opt workload idx with
  | None -> "-"
  | Some c -> syscall_name (Some (Vfs.Syscall.to_string c))

let context ~during_syscall ~after_syscall word =
  match (during_syscall, after_syscall) with
  | Some i, _ -> "during:" ^ word i
  | None, Some i -> "after:" ^ word i
  | None, None -> "init"

let evidence = function
  | Unmountable m | Recovery_fault m | Unusable m -> normalize m
  | Atomicity { diffs; _ } | Synchrony { diffs; _ } ->
    normalize (String.concat "|" (List.filteri (fun i _ -> i < 2) diffs))
  | Torn_data { detail; _ } -> normalize detail
  | Inaccessible { error; _ } -> normalize error

type verdict = { verdict_kind : kind; label : string; evidence : string }

let verdict kind = { verdict_kind = kind; label = kind_label kind; evidence = evidence kind }

let fingerprint_of ~fs ~context v = String.concat "/" [ fs; v.label; context; v.evidence ]

let fingerprint t =
  let context =
    context ~during_syscall:t.crash_point.during_syscall
      ~after_syscall:t.crash_point.after_syscall (first_word_of_call t.workload)
  in
  fingerprint_of ~fs:t.fs ~context (verdict t.kind)

let summary t =
  let where =
    match (t.crash_point.during_syscall, t.crash_point.after_syscall) with
    | Some i, _ -> Printf.sprintf "during syscall %d (%s)" i (first_word_of_call t.workload i)
    | None, Some i -> Printf.sprintf "after syscall %d (%s)" i (first_word_of_call t.workload i)
    | None, None -> "before any syscall"
  in
  let what =
    match t.kind with
    | Unmountable m -> "file system unmountable: " ^ m
    | Recovery_fault m -> "recovery crashed: " ^ m
    | Atomicity { syscall; _ } -> "atomicity of " ^ syscall_name (Some syscall) ^ " broken"
    | Synchrony { syscall; _ } -> syscall_name (Some syscall) ^ " not synchronous"
    | Torn_data { path; _ } -> "torn/garbage data in " ^ path
    | Inaccessible { path; error } -> path ^ " inaccessible (" ^ error ^ ")"
    | Unusable m -> "file system unusable after recovery: " ^ m
  in
  Printf.sprintf "[%s] %s, crash %s" t.fs what where

let evidence_fields = function
  | Unmountable m | Recovery_fault m | Unusable m -> [ ("evidence", Json.str m) ]
  | Atomicity { syscall; diffs } | Synchrony { syscall; diffs } ->
    [ ("syscall", Json.str syscall); ("diffs", Json.arr (List.map Json.str diffs)) ]
  | Torn_data { path; detail } -> [ ("path", Json.str path); ("detail", Json.str detail) ]
  | Inaccessible { path; error } -> [ ("path", Json.str path); ("error", Json.str error) ]

(* The workload array uses the Workload_io per-line codec (not the display
   form of [Syscall.to_string]) so that [of_json] can parse it back and a
   saved report is a complete, replayable reproducer. *)
let to_json t =
  Json.obj
    ([
       ("fs", Json.str t.fs);
       ("kind", Json.str (kind_label t.kind));
       ("fingerprint", Json.str (fingerprint t));
       ("summary", Json.str (summary t));
       ( "crash_point",
         Json.obj
           [
             ("fence_no", string_of_int t.crash_point.fence_no);
             ("during_syscall", Json.int_opt t.crash_point.during_syscall);
             ("after_syscall", Json.int_opt t.crash_point.after_syscall);
             ("subset", Json.arr (List.map string_of_int t.crash_point.subset));
             ("in_flight", string_of_int t.crash_point.in_flight);
           ] );
       ( "workload",
         Json.arr (List.map (fun c -> Json.str (Vfs.Workload_io.line_of_call c)) t.workload) );
     ]
    @ evidence_fields t.kind)

let ( let* ) = Result.bind

let jfield name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let jstr name j =
  let* v = jfield name j in
  match Json.to_string_opt v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S: expected a string" name)

let jint name j =
  let* v = jfield name j in
  match Json.to_int_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S: expected an integer" name)

let jint_opt name j =
  let* v = jfield name j in
  match v with
  | Json.Null -> Ok None
  | Json.Int i -> Ok (Some i)
  | _ -> Error (Printf.sprintf "field %S: expected an integer or null" name)

let jlist name j =
  let* v = jfield name j in
  match Json.to_list_opt v with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "field %S: expected an array" name)

let jstr_list name j =
  let* l = jlist name j in
  List.fold_left
    (fun acc v ->
      let* acc = acc in
      match Json.to_string_opt v with
      | Some s -> Ok (s :: acc)
      | None -> Error (Printf.sprintf "field %S: expected an array of strings" name))
    (Ok []) l
  |> Result.map List.rev

let kind_of_json j =
  let* label = jstr "kind" j in
  match label with
  | "unmountable" ->
    let* m = jstr "evidence" j in
    Ok (Unmountable m)
  | "recovery-fault" ->
    let* m = jstr "evidence" j in
    Ok (Recovery_fault m)
  | "unusable" ->
    let* m = jstr "evidence" j in
    Ok (Unusable m)
  | "atomicity" ->
    let* syscall = jstr "syscall" j in
    let* diffs = jstr_list "diffs" j in
    Ok (Atomicity { syscall; diffs })
  | "synchrony" ->
    let* syscall = jstr "syscall" j in
    let* diffs = jstr_list "diffs" j in
    Ok (Synchrony { syscall; diffs })
  | "torn-data" ->
    let* path = jstr "path" j in
    let* detail = jstr "detail" j in
    Ok (Torn_data { path; detail })
  | "inaccessible" ->
    let* path = jstr "path" j in
    let* error = jstr "error" j in
    Ok (Inaccessible { path; error })
  | other -> Error (Printf.sprintf "unknown report kind %S" other)

let of_json_value j =
  let* fs = jstr "fs" j in
  let* kind = kind_of_json j in
  let* lines = jstr_list "workload" j in
  let* workload =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        let* call = Vfs.Workload_io.parse_line line in
        Ok (call :: acc))
      (Ok []) lines
    |> Result.map List.rev
  in
  let* cp = jfield "crash_point" j in
  let* fence_no = jint "fence_no" cp in
  let* during_syscall = jint_opt "during_syscall" cp in
  let* after_syscall = jint_opt "after_syscall" cp in
  let* in_flight = jint "in_flight" cp in
  let* subset =
    let* l = jlist "subset" cp in
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        match Json.to_int_opt v with
        | Some i -> Ok (i :: acc)
        | None -> Error "field \"subset\": expected an array of integers")
      (Ok []) l
    |> Result.map List.rev
  in
  Ok
    {
      fs;
      workload;
      crash_point = { fence_no; during_syscall; after_syscall; subset; in_flight };
      kind;
    }

let of_json text =
  let* j = Json.parse text in
  of_json_value j

let pp ppf t =
  Format.fprintf ppf "=== BUG REPORT (%s) ===@." t.fs;
  Format.fprintf ppf "%s@." (summary t);
  Format.fprintf ppf "crash point: fence %d, in-flight %d, replayed subset [%s]@."
    t.crash_point.fence_no t.crash_point.in_flight
    (String.concat "; " (List.map string_of_int t.crash_point.subset));
  Format.fprintf ppf "workload:@.";
  List.iteri (fun i c -> Format.fprintf ppf "  %2d: %s@." i (Vfs.Syscall.to_string c)) t.workload;
  (match t.kind with
  | Atomicity { diffs; _ } | Synchrony { diffs; _ } ->
    Format.fprintf ppf "evidence:@.";
    List.iter (fun d -> Format.fprintf ppf "  %s@." d) diffs
  | Unmountable m | Recovery_fault m | Unusable m -> Format.fprintf ppf "evidence: %s@." m
  | Torn_data { path; detail } -> Format.fprintf ppf "evidence: %s: %s@." path detail
  | Inaccessible { path; error } -> Format.fprintf ppf "evidence: %s: %s@." path error);
  Format.fprintf ppf "fingerprint: %s@." (fingerprint t)
