(** Shared types of the POSIX surface exposed by every file system. *)

type file_kind = Reg | Dir

type stat = {
  st_ino : int;
  st_kind : file_kind;
  st_size : int;
  st_nlink : int;
}
(** File attributes. Timestamps are deliberately absent: the Chipmunk paper
    notes its checker does not compare timestamps (section 6.2), and logical
    clocks would differ between oracle and target anyway. *)

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_EXCL | O_TRUNC | O_APPEND
type whence = SEEK_SET | SEEK_CUR | SEEK_END
type dirent = { d_ino : int; d_name : string }

val kind_to_string : file_kind -> string
val flags_to_string : open_flag list -> string
val whence_to_string : whence -> string
val writable : open_flag list -> bool
val readable : open_flag list -> bool
