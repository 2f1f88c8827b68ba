(** Centralized persistence functions over a PM device image.

    Every file system in this repository performs all media I/O through this
    module — the analogue of the small set of centralized persistence
    functions the paper observes in real PM file systems (non-temporal
    memcpy/memset, buffer flush, store fence). Chipmunk's logger attaches
    here, exactly as Kprobes attach to those functions in the original
    system: arming a logger requires no change to file-system code.

    Semantics of the model (section 2 of the paper):
    - [store] is a plain cached store: visible to subsequent reads, but
      volatile until a [flush] covering it and a later [fence] execute;
    - [memcpy_nt]/[memset_nt] are non-temporal: they become persistent at the
      next [fence] without needing a flush;
    - [flush] writes back the cache lines covering a buffer; the written-back
      contents become persistent at the next [fence];
    - a store that has been flushed or written non-temporally but not yet
      fenced is {e in-flight}: after a crash it may or may not have reached
      media, independently of other in-flight stores. *)

type t

type stats = {
  mutable nt_calls : int;
  mutable flush_calls : int;
  mutable fence_calls : int;
  mutable cached_stores : int;
  mutable bytes_written : int;
}

val create : Pmem.Image.t -> t
val image : t -> Pmem.Image.t
val size : t -> int
val stats : t -> stats

val set_logger : t -> (Trace.op -> unit) option -> unit
(** Arm or disarm the gray-box logger. When armed, every persistence-function
    invocation is reported; cached [store]s are not (they only reach media
    via a later [flush], which is). Disarmed, nothing is built or copied
    for the log, but store sequence numbers advance as if it were armed. *)

val trace_to : t -> Trace.t -> unit
(** [set_logger] with a logger that appends to the given trace. *)

type granularity =
  | Function_level
      (** One trace record per persistence-function call — Chipmunk's
          gray-box interception (the default). *)
  | Instruction_level
      (** One trace record per 8-byte store / per flushed cache line — how
          Yat, PMTest and Vinter instrument, kept as an ablation mode to
          reproduce the paper's state-space comparison. *)

val set_granularity : t -> granularity -> unit

val set_read_hook : t -> (int -> int -> unit) option -> unit
(** Observe PM loads ([off], [len]). The replayer's read-set heuristic (the
    Vinter-style state-space reduction the paper suggests Chipmunk could
    adopt, section 6.2) arms this during a probe recovery to learn which
    in-flight writes recovery actually inspects. *)

(** {1 Persistence functions (intercepted)} *)

val memcpy_nt : t -> off:int -> string -> unit
val memset_nt : t -> off:int -> len:int -> char -> unit
val flush : t -> off:int -> len:int -> unit
(** Write back the cache lines covering [off, off+len). *)

val fence : t -> unit

(** {1 Plain cached stores (volatile until flushed)} *)

val store : t -> off:int -> string -> unit
val store_u64 : t -> off:int -> int -> unit

(** {1 Typed non-temporal stores} *)

val nt_u32 : t -> off:int -> int -> unit
val nt_u64 : t -> off:int -> int -> unit

(** {1 Composite helpers} *)

val persist_u64 : t -> off:int -> int -> unit
(** 8-byte aligned atomic persist: non-temporal store + fence. The standard
    "commit pointer" idiom of log-structured PM file systems. *)

(** {1 Loads} *)

val read : t -> off:int -> len:int -> string
val read_u8 : t -> off:int -> int
val read_u16 : t -> off:int -> int
val read_u32 : t -> off:int -> int
val read_u64 : t -> off:int -> int

(** {1 Syscall markers (inserted by the test harness)} *)

val mark_syscall_begin : t -> idx:int -> descr:string -> unit
val mark_syscall_end : t -> idx:int -> ret:int -> unit
