(** The oracle: the workload's intended effect, computed on {!Memfs}.

    Chipmunk compares every crash state against oracle file versions (paper
    section 3.3). We run the workload once on a fresh in-memory file system
    and snapshot the whole tree at every syscall boundary — small ACE/fuzzer
    trees make whole-tree snapshots cheap, and they subsume both the
    "modified files match one version" and the "unmodified files are
    untouched" checks. *)

type t

val run : Vfs.Syscall.t list -> t

val n_calls : t -> int

val pre : t -> int -> Vfs.Walker.tree
(** Tree before syscall [i] ran. *)

val post : t -> int -> Vfs.Walker.tree
(** Tree after syscall [i] completed. *)

val final : t -> Vfs.Walker.tree

val target : t -> int -> string option
(** For fd-based calls (write/pwrite/fallocate/fsync/fdatasync), the path the
    descriptor referred to when syscall [i] ran; [None] for other calls or
    unresolvable descriptors. *)

val ret : t -> int -> int
(** Oracle return value of syscall [i]. *)

val pre_digest : t -> int -> int
(** [Vfs.Walker.digest (pre t i)], computed once per boundary by {!run}. *)

val post_digest : t -> int -> int
(** [Vfs.Walker.digest (post t i)], computed once per boundary by {!run}. *)
