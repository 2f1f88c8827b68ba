type data = { seed : int; len : int }

(* xorshift-based deterministic payload; printable so hexdumps and diffs in
   bug reports stay readable. A plain loop: campaigns expand megabytes of
   payload, and [String.init] would call a closure per byte. *)
let bytes { seed; len } =
  let b = Bytes.create len in
  let x = ref (if seed = 0 then 0x9E3779B9 else seed) in
  for i = 0 to len - 1 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v land max_int;
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code 'a' + (abs v mod 26)))
  done;
  Bytes.unsafe_to_string b

type t =
  | Creat of { path : string; fd_var : int }
  | Mkdir of { path : string }
  | Open of { path : string; flags : Types.open_flag list; fd_var : int }
  | Close of { fd_var : int }
  | Write of { fd_var : int; data : data }
  | Pwrite of { fd_var : int; off : int; data : data }
  | Read of { fd_var : int; len : int }
  | Lseek of { fd_var : int; off : int; whence : Types.whence }
  | Link of { src : string; dst : string }
  | Unlink of { path : string }
  | Remove of { path : string }
  | Rename of { src : string; dst : string }
  | Truncate of { path : string; size : int }
  | Fallocate of { fd_var : int; off : int; len : int; keep_size : bool }
  | Rmdir of { path : string }
  | Fsync of { fd_var : int }
  | Fdatasync of { fd_var : int }
  | Sync
  | Setxattr of { path : string; name : string; value : string }
  | Removexattr of { path : string; name : string }

let to_string = function
  | Creat { path; fd_var } -> Printf.sprintf "creat %s -> $%d" path fd_var
  | Mkdir { path } -> Printf.sprintf "mkdir %s" path
  | Open { path; flags; fd_var } ->
    Printf.sprintf "open %s %s -> $%d" path (Types.flags_to_string flags) fd_var
  | Close { fd_var } -> Printf.sprintf "close $%d" fd_var
  | Write { fd_var; data } -> Printf.sprintf "write $%d len=%d seed=%d" fd_var data.len data.seed
  | Pwrite { fd_var; off; data } ->
    Printf.sprintf "pwrite $%d off=%d len=%d seed=%d" fd_var off data.len data.seed
  | Read { fd_var; len } -> Printf.sprintf "read $%d len=%d" fd_var len
  | Lseek { fd_var; off; whence } ->
    Printf.sprintf "lseek $%d off=%d %s" fd_var off (Types.whence_to_string whence)
  | Link { src; dst } -> Printf.sprintf "link %s %s" src dst
  | Unlink { path } -> Printf.sprintf "unlink %s" path
  | Remove { path } -> Printf.sprintf "remove %s" path
  | Rename { src; dst } -> Printf.sprintf "rename %s %s" src dst
  | Truncate { path; size } -> Printf.sprintf "truncate %s size=%d" path size
  | Fallocate { fd_var; off; len; keep_size } ->
    Printf.sprintf "fallocate $%d off=%d len=%d keep_size=%b" fd_var off len keep_size
  | Rmdir { path } -> Printf.sprintf "rmdir %s" path
  | Fsync { fd_var } -> Printf.sprintf "fsync $%d" fd_var
  | Fdatasync { fd_var } -> Printf.sprintf "fdatasync $%d" fd_var
  | Sync -> "sync"
  | Setxattr { path; name; value } -> Printf.sprintf "setxattr %s %s=%s" path name value
  | Removexattr { path; name } -> Printf.sprintf "removexattr %s %s" path name

let is_data_op = function
  | Write _ | Pwrite _ | Fallocate _ -> true
  | Creat _ | Mkdir _ | Open _ | Close _ | Read _ | Lseek _ | Link _ | Unlink _ | Remove _
  | Rename _ | Truncate _ | Rmdir _ | Fsync _ | Fdatasync _ | Sync | Setxattr _
  | Removexattr _ ->
    false

let is_fsync_family = function
  | Fsync _ | Fdatasync _ | Sync -> true
  | Creat _ | Mkdir _ | Open _ | Close _ | Write _ | Pwrite _ | Read _ | Lseek _ | Link _
  | Unlink _ | Remove _ | Rename _ | Truncate _ | Fallocate _ | Rmdir _ | Setxattr _
  | Removexattr _ ->
    false

let pp ppf t = Format.pp_print_string ppf (to_string t)
