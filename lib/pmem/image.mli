(** A simulated persistent-memory device image.

    The image holds the byte contents of one PM device. During workload
    execution it represents the CPU's view of memory (all stores are visible,
    regardless of persistence); persistence is tracked separately by the
    {!Persist} trace and reconstructed by the Chipmunk replayer, which applies
    logged writes onto a snapshot of this image.

    All accesses are bounds-checked and raise {!Fault.Out_of_bounds} on
    violation, mirroring how a stray kernel access would fault on real
    hardware.

    The image also maintains an incremental content {!digest}: a per-cache-line
    hash folded into a rolling root, updated on every mutation. Each write
    rehashes only the lines it touches, so the digest of a crash state costs
    O(dirty lines), not O(device size). The digest is a pure function of the
    byte contents, so restoring bytes (e.g. {!Persist.Undo.rollback} writing
    pre-images back through {!write_string}) restores the digest exactly. *)

type t

val create : size:int -> t
(** A zero-filled device of [size] bytes. The zero state's line hashes are
    computed once per size and copied, so this costs an allocation, not a
    hash of the whole device. *)

val clear : t -> unit
(** Reset [t] in place to the zero-filled state {!create} returns: bytes,
    line hashes and digest. *)

val size : t -> int

val digest : t -> int
(** The rolling content digest, maintained incrementally. Equal bytes imply
    equal digests; distinct digests imply distinct bytes. Collisions between
    distinct contents are possible but need ~2^31 states by birthday bound. *)

val rehash : t -> int
(** Recompute {!digest} from scratch over the whole image (O(size)). Test
    oracle for the incremental maintenance; does not mutate [t]. *)

val read : t -> off:int -> len:int -> string
(** [read t ~off ~len] copies [len] bytes starting at [off]. *)

val read_u8 : t -> off:int -> int
val read_u16 : t -> off:int -> int
val read_u32 : t -> off:int -> int
val read_u64 : t -> off:int -> int
(** Little-endian fixed-width loads. [read_u64] returns an OCaml [int]
    (images are far smaller than 2^62 bytes, so no precision is lost). *)

val write_string : t -> off:int -> string -> unit
(** Raw store, bypassing persistence tracking. Used by the persistence layer
    and by the replayer; file systems must go through {!Persist.Pm}. *)

val fill : t -> off:int -> len:int -> char -> unit

val write_u8 : t -> off:int -> int -> unit
val write_u16 : t -> off:int -> int -> unit
val write_u32 : t -> off:int -> int -> unit
val write_u64 : t -> off:int -> int -> unit

val snapshot : t -> t
(** An independent copy of the image. *)

val restore : t -> from:t -> unit
(** Overwrite [t]'s contents with those of [from]. Sizes must match. *)

val equal : t -> t -> bool

val hexdump : ?off:int -> ?len:int -> t -> string
(** Human-readable dump of a region, used in bug reports. *)
