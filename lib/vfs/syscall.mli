(** Workload representation: a program of file-system operations.

    Both the ACE generator and the fuzzer produce values of this type; the
    {!Workload} executor runs them against any {!Handle.t}, so the same
    program drives the file system under test and the oracle.

    File descriptors are virtual registers ([fd_var]); the executor maps
    them to real descriptors at run time, which lets the fuzzer construct
    programs with several descriptors open on the same file (the pattern
    behind bugs that ACE cannot express, paper section 4.3). *)

type data = { seed : int; len : int }
(** Deterministic write payload: [bytes] expands it to the same string in
    every run, so oracle and target receive identical contents. *)

val bytes : data -> string

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

val to_string : t -> string
(** Stable, single-line rendering; used for syscall markers, bug reports and
    fuzzer triage. *)

val is_data_op : t -> bool
(** Whether the call mutates file data ([write]/[pwrite]/[fallocate]) rather
    than metadata only — data ops get the relaxed mid-crash atomicity check
    unless the file system promises atomic data writes. *)

val is_fsync_family : t -> bool

val pp : Format.formatter -> t -> unit
