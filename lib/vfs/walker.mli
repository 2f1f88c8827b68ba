(** Whole-tree capture and comparison.

    The oracle tracker snapshots the reference tree around every system call;
    the consistency checker captures the recovered tree of each crash state
    and diffs it against oracle versions. A node that cannot be statted or
    read records the error instead of content — the checker treats such
    nodes as findings (e.g. NOVA-Fortis checksum failures surface as [EIO]
    here). *)

type node = {
  path : string;
  kind : Types.file_kind option;  (** [None] when stat failed. *)
  size : int;
  nlink : int;
  content : string option;  (** File bytes, when readable. *)
  entries : string list option;  (** Directory entry names, when readable. *)
  xattrs : (string * string) list;
      (** Extended attributes, sorted by name; empty where unsupported. *)
  error : string option;  (** First error hit while inspecting this node. *)
}

type tree = node list
(** Sorted by path; always contains at least the root node. *)

val capture : Handle.t -> tree

val probe : Handle.t -> string -> node option
(** Inspect the single node at [path] — [None] when it does not stat. Used by
    the oracle's incremental digest maintainer to re-hash just the changed
    paths; unlike crash-state mounts, the oracle's reference file system never
    errors on a live path, so [None] simply means "absent". *)

val find : tree -> string -> node option

val hash_node : node -> int
(** FNV-1a over a stable byte rendering of the node that covers every field
    [equal_node] compares (plus [nlink] unconditionally): the canonical node
    identity behind both tree digests here. *)

val combine : root:int -> count:int -> int
(** Fold a commutative sum of per-node hashes plus the node count into a tree
    digest; exposed so incremental maintainers produce digests byte-identical
    to {!digest}. *)

val digest : tree -> int
(** From-scratch tree digest: [combine] over the sum of [hash_node]. Equal
    trees (per [equal] modulo the nlink-for-directories caveat) digest
    equally; the test battery guards that differing xattrs / nlink / errors
    change it. *)

val equal_node : node -> node -> bool
(** Compare kind, size, content and directory entries; compare [nlink] for
    regular files only (directory link-count conventions are checked by the
    conformance suite, not the crash checker); ignore inode numbers. *)

val equal : tree -> tree -> bool

val diff : expected:tree -> actual:tree -> string list
(** Human-readable differences, empty when [equal]. *)

val describe : node -> string
(** One-line rendering of a node, used in diffs and reports. *)

val has_errors : tree -> (string * string) list
(** (path, error) for every node that could not be inspected. *)

val pp : Format.formatter -> tree -> unit
