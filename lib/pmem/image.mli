(** A simulated persistent-memory device image.

    The image holds the byte contents of one PM device. During workload
    execution it represents the CPU's view of memory (all stores are visible,
    regardless of persistence); persistence is tracked separately by the
    {!Persist} trace and reconstructed by the Chipmunk replayer, which applies
    logged writes onto a snapshot of this image.

    All accesses are bounds-checked and raise {!Fault.Out_of_bounds} on
    violation, mirroring how a stray kernel access would fault on real
    hardware.

    The image also maintains an incremental content {!digest}: a
    per-cache-line hash folded into a rolling root. Hashing is deferred: a
    write only marks its lines stale, and the next {!digest}, {!snapshot},
    {!restore}, {!equal} or {!checkpoint} rehashes each stale line once. So
    the digest of a crash state costs O(dirty lines), not O(device size),
    and lines nobody digests are never hashed. The digest is a pure function
    of the byte contents.

    A {!checkpoint} lets the checker mutate a crash state in place (a mount
    may replay a journal; the usability probe creates and deletes files) and
    {!rollback} undo every write since, through any path: the first write to
    each cache line saves that line's bytes and hash, and rollback copies
    them back. This is the paper's undo log of pre-images (end of section
    3.3), kept per cache line instead of per write. *)

type t

val create : size:int -> t
(** A zero-filled device of [size] bytes. The zero state's line hashes are
    computed once per size and copied, so this costs an allocation, not a
    hash of the whole device. *)

val clear : t -> unit
(** Reset [t] in place to the zero-filled state {!create} returns: bytes,
    line hashes and digest. Discards an open checkpoint. Costs O(cache
    lines written since [t] was last zero): the image keeps a list of the
    lines that may be non-zero. *)

val size : t -> int

val digest : t -> int
(** The rolling content digest, maintained incrementally (stale lines are
    rehashed first). Equal bytes imply equal digests; distinct digests imply
    distinct bytes. Collisions between distinct contents are possible but
    need ~2^31 states by birthday bound. *)

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
(** An independent copy of the image, with no checkpoint open. *)

val restore : t -> from:t -> unit
(** Overwrite [t]'s contents with those of [from]. Sizes must match.
    Discards [t]'s open checkpoint. Costs O(lines that may be non-zero in
    [t] or [from]), like {!clear}. *)

val checkpoint : t -> unit
(** Open a checkpoint: from now on the first write to each cache line saves
    that line's bytes and hash, whichever function writes it.
    @raise Invalid_argument if a checkpoint is already open. *)

val rollback : t -> unit
(** Restore the bytes and digest [t] had at {!checkpoint}, and close the
    checkpoint. Costs O(lines written since), and hashes nothing.
    @raise Invalid_argument if no checkpoint is open. *)

val equal : t -> t -> bool

val hexdump : ?off:int -> ?len:int -> t -> string
(** Human-readable dump of a region, used in bug reports. *)
