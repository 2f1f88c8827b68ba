(** The oracle: the workload's intended effect, computed on {!Memfs}.

    Chipmunk compares every crash state against oracle file versions (paper
    section 3.3). We run the workload once on a fresh in-memory file system
    and snapshot the whole tree at every syscall boundary — small ACE/fuzzer
    trees make whole-tree snapshots cheap, and they subsume both the
    "modified files match one version" and the "unmodified files are
    untouched" checks. *)

type t
(** The workload's [n + 1] boundaries: boundary [b] is the state after
    [b] calls, so call [i] runs from boundary [i] to boundary [i + 1]. *)

type boundary
(** One boundary: its tree and the tree's digest, and the target and
    return of the call that led there (none for boundary 0). *)

val run : ?known:boundary array -> Vfs.Syscall.t list -> t
(** The oracle of [calls]. Without [known] this is the reference: every
    boundary is captured and digested.

    [known], boundaries [0 .. k] of the oracle of [calls] (the caller
    vouches for that), is taken as they are: only the later boundaries
    are captured and digested, and appended to it. Memfs still runs
    every call unless [known] covers all of [calls], in which case it is
    the result. The result equals the reference either way. *)

val make :
  trees:Vfs.Walker.tree array ->
  digests:int array ->
  targets:string option array ->
  rets:int array ->
  t
(** An oracle from its parts: [n + 1] boundary trees and their digests,
    and [n] call targets and returns. The parts are not checked against
    each other. *)

val n_calls : t -> int

val boundary : t -> int -> boundary
(** Boundary [b], [0 <= b <= n_calls t]. *)

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
