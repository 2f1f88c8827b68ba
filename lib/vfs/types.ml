type file_kind = Reg | Dir

type stat = {
  st_ino : int;
  st_kind : file_kind;
  st_size : int;
  st_nlink : int;
}

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_EXCL | O_TRUNC | O_APPEND
type whence = SEEK_SET | SEEK_CUR | SEEK_END
type dirent = { d_ino : int; d_name : string }

let kind_to_string = function Reg -> "reg" | Dir -> "dir"

let flag_to_string = function
  | O_RDONLY -> "O_RDONLY"
  | O_WRONLY -> "O_WRONLY"
  | O_RDWR -> "O_RDWR"
  | O_CREAT -> "O_CREAT"
  | O_EXCL -> "O_EXCL"
  | O_TRUNC -> "O_TRUNC"
  | O_APPEND -> "O_APPEND"

let flags_to_string flags = String.concat "|" (List.map flag_to_string flags)

let whence_to_string = function
  | SEEK_SET -> "SEEK_SET"
  | SEEK_CUR -> "SEEK_CUR"
  | SEEK_END -> "SEEK_END"

let writable flags = List.exists (fun f -> f = O_WRONLY || f = O_RDWR) flags
let readable flags = not (List.mem O_WRONLY flags)
