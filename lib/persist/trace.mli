(** The write trace recorded by intercepting centralized persistence
    functions.

    This is the OCaml analogue of Chipmunk's Kprobe/Uprobe logger modules
    (paper section 3.3): each record corresponds to one invocation of a
    persistence function — a non-temporal store, a buffer flush, or a store
    fence — together with the written contents, plus markers delimiting the
    system call that issued it. *)

type write_kind =
  | Nt  (** Non-temporal store: bypasses the cache, persistent after the next fence. *)
  | Flushed_line
      (** Cache-line write-back ([clwb]-style): contents of the line at flush
          time, persistent after the next fence. *)

type store = {
  seq : int;  (** Global sequence number, for stable ordering and reports. *)
  addr : int;  (** Destination offset on the device. *)
  data : string;  (** Bytes as they will reach the media. *)
  kind : write_kind;
  func : string;
      (** Name of the intercepted persistence function ("memcpy_nt",
          "memset_nt", "flush_buffer", ...), used by the coalescing
          heuristic. *)
}

type op =
  | Store of store
  | Fence  (** Store fence: all prior in-flight stores become persistent. *)
  | Syscall_begin of { idx : int; descr : string }
  | Syscall_end of { idx : int; ret : int }

type t
(** A recorded trace. *)

val create : unit -> t
val record : t -> op -> unit
val length : t -> int
val ops : t -> op array
(** Snapshot of the ops recorded so far, in order. *)

val iter : t -> (op -> unit) -> unit
val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit
