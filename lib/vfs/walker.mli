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

val find : tree -> string -> node option

val digest : tree -> int
(** Tree digest: an FNV-1a hash per node, over a stable byte rendering that
    covers every field [equal_node] compares (plus [nlink] unconditionally),
    finalized by {!Pmem.Checksum.mix}, summed and mixed with the node count.
    Equal trees (per [equal] modulo the nlink-for-directories caveat) digest
    equally. Distinct trees can collide, and nothing here bounds how
    often. The finalizer keeps swaps of names or contents between two
    nodes from cancelling in the sum; the tests check that each field
    reaches the digest and that such swaps digest differently. *)

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
