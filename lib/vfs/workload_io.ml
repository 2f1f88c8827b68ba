module S = Syscall

let flag_of_string = function
  | "O_RDONLY" -> Some Types.O_RDONLY
  | "O_WRONLY" -> Some Types.O_WRONLY
  | "O_RDWR" -> Some Types.O_RDWR
  | "O_CREAT" -> Some Types.O_CREAT
  | "O_EXCL" -> Some Types.O_EXCL
  | "O_TRUNC" -> Some Types.O_TRUNC
  | "O_APPEND" -> Some Types.O_APPEND
  | _ -> None

let whence_of_string = function
  | "SEEK_SET" -> Some Types.SEEK_SET
  | "SEEK_CUR" -> Some Types.SEEK_CUR
  | "SEEK_END" -> Some Types.SEEK_END
  | _ -> None

let line_of_call = function
  | S.Creat { path; fd_var } -> Printf.sprintf "creat %s %d" path fd_var
  | S.Mkdir { path } -> Printf.sprintf "mkdir %s" path
  | S.Open { path; flags; fd_var } ->
    Printf.sprintf "open %s %s %d" path (Types.flags_to_string flags) fd_var
  | S.Close { fd_var } -> Printf.sprintf "close %d" fd_var
  | S.Write { fd_var; data } -> Printf.sprintf "write %d seed=%d len=%d" fd_var data.seed data.len
  | S.Pwrite { fd_var; off; data } ->
    Printf.sprintf "pwrite %d off=%d seed=%d len=%d" fd_var off data.seed data.len
  | S.Read { fd_var; len } -> Printf.sprintf "read %d len=%d" fd_var len
  | S.Lseek { fd_var; off; whence } ->
    Printf.sprintf "lseek %d off=%d %s" fd_var off (Types.whence_to_string whence)
  | S.Link { src; dst } -> Printf.sprintf "link %s %s" src dst
  | S.Unlink { path } -> Printf.sprintf "unlink %s" path
  | S.Remove { path } -> Printf.sprintf "remove %s" path
  | S.Rename { src; dst } -> Printf.sprintf "rename %s %s" src dst
  | S.Truncate { path; size } -> Printf.sprintf "truncate %s size=%d" path size
  | S.Fallocate { fd_var; off; len; keep_size } ->
    Printf.sprintf "fallocate %d off=%d len=%d keep=%b" fd_var off len keep_size
  | S.Rmdir { path } -> Printf.sprintf "rmdir %s" path
  | S.Fsync { fd_var } -> Printf.sprintf "fsync %d" fd_var
  | S.Fdatasync { fd_var } -> Printf.sprintf "fdatasync %d" fd_var
  | S.Sync -> "sync"
  | S.Setxattr { path; name; value } -> Printf.sprintf "setxattr %s %s %s" path name value
  | S.Removexattr { path; name } -> Printf.sprintf "removexattr %s %s" path name

let to_string calls =
  "# chipmunk workload\n" ^ String.concat "\n" (List.map line_of_call calls) ^ "\n"

let ( let* ) = Result.bind

(* The largest offset, size or length a workload may name (the oracle
   allocates it): above every device and every driver's maximum file size.
   Only seeds pass a larger [max]. *)
let max_size = 1 lsl 20

let int_field ?(max = max_size) ~key s =
  let prefix = key ^ "=" in
  if String.length s > String.length prefix
     && String.sub s 0 (String.length prefix) = prefix
  then
    match int_of_string_opt (String.sub s (String.length prefix)
                               (String.length s - String.length prefix)) with
    | Some v when v <= max -> Ok v
    | Some v -> Error (Printf.sprintf "%s must be at most %d, got %d" key max v)
    | None -> Error (Printf.sprintf "bad integer in %S" s)
  else Error (Printf.sprintf "expected %s=<int>, got %S" key s)

(* A data length: generating a negative-length payload would raise. *)
let len_field s =
  let* len = int_field ~key:"len" s in
  if len < 0 then Error (Printf.sprintf "len must be non-negative, got %d" len)
  else Ok len

let bool_field ~key s =
  let prefix = key ^ "=" in
  if String.length s > String.length prefix && String.sub s 0 (String.length prefix) = prefix
  then
    match String.sub s (String.length prefix) (String.length s - String.length prefix) with
    | "true" -> Ok true
    | "false" -> Ok false
    | other -> Error (Printf.sprintf "bad boolean %S" other)
  else Error (Printf.sprintf "expected %s=<bool>, got %S" key s)

let int s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad integer %S" s)

let parse_line line =
  let parts = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
  match parts with
  | [ "creat"; path; fd ] ->
    let* fd_var = int fd in
    Ok (S.Creat { path; fd_var })
  | [ "mkdir"; path ] -> Ok (S.Mkdir { path })
  | [ "open"; path; flags; fd ] ->
    let* fd_var = int fd in
    let* flags =
      List.fold_left
        (fun acc name ->
          let* acc = acc in
          match flag_of_string name with
          | Some f -> Ok (f :: acc)
          | None -> Error (Printf.sprintf "unknown open flag %S" name))
        (Ok [])
        (String.split_on_char '|' flags)
    in
    Ok (S.Open { path; flags = List.rev flags; fd_var })
  | [ "close"; fd ] ->
    let* fd_var = int fd in
    Ok (S.Close { fd_var })
  | [ "write"; fd; seed; len ] ->
    let* fd_var = int fd in
    let* seed = int_field ~max:max_int ~key:"seed" seed in
    let* len = len_field len in
    Ok (S.Write { fd_var; data = { seed; len } })
  | [ "pwrite"; fd; off; seed; len ] ->
    let* fd_var = int fd in
    let* off = int_field ~key:"off" off in
    let* seed = int_field ~max:max_int ~key:"seed" seed in
    let* len = len_field len in
    Ok (S.Pwrite { fd_var; off; data = { seed; len } })
  | [ "read"; fd; len ] ->
    let* fd_var = int fd in
    let* len = int_field ~key:"len" len in
    Ok (S.Read { fd_var; len })
  | [ "lseek"; fd; off; whence ] ->
    let* fd_var = int fd in
    let* off = int_field ~key:"off" off in
    (match whence_of_string whence with
    | Some whence -> Ok (S.Lseek { fd_var; off; whence })
    | None -> Error (Printf.sprintf "unknown whence %S" whence))
  | [ "link"; src; dst ] -> Ok (S.Link { src; dst })
  | [ "unlink"; path ] -> Ok (S.Unlink { path })
  | [ "remove"; path ] -> Ok (S.Remove { path })
  | [ "rename"; src; dst ] -> Ok (S.Rename { src; dst })
  | [ "truncate"; path; size ] ->
    let* size = int_field ~key:"size" size in
    Ok (S.Truncate { path; size })
  | [ "fallocate"; fd; off; len; keep ] ->
    let* fd_var = int fd in
    let* off = int_field ~key:"off" off in
    let* len = int_field ~key:"len" len in
    let* keep_size = bool_field ~key:"keep" keep in
    Ok (S.Fallocate { fd_var; off; len; keep_size })
  | [ "rmdir"; path ] -> Ok (S.Rmdir { path })
  | [ "fsync"; fd ] ->
    let* fd_var = int fd in
    Ok (S.Fsync { fd_var })
  | [ "fdatasync"; fd ] ->
    let* fd_var = int fd in
    Ok (S.Fdatasync { fd_var })
  | [ "sync" ] -> Ok S.Sync
  | [ "setxattr"; path; name; value ] -> Ok (S.Setxattr { path; name; value })
  | [ "removexattr"; path; name ] -> Ok (S.Removexattr { path; name })
  | verb :: _ -> Error (Printf.sprintf "unknown syscall %S" verb)
  | [] -> Error "empty line"

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go acc (lineno + 1) rest
      else (
        match parse_line trimmed with
        | Ok call -> go (call :: acc) (lineno + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go [] 1 lines

let save ~path calls =
  let oc = open_out path in
  output_string oc (to_string calls);
  close_out oc

let load ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    of_string text
