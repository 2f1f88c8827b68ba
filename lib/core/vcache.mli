(** Campaign-wide verdict cache.

    Memoizes {!Checker.check} verdicts (the list of {!Report.kind}s, possibly
    empty) under a key that captures everything the verdict can depend on:
    the file system name, a digest of the crash phase's oracle slice (rendered
    syscall + the pre/post trees it is judged against + the fsync target for
    weak systems) and the crash image's content {!Pmem.Image.digest}. The
    syscall {e index} is deliberately absent, so equivalent crash states
    reached at different positions — or in different workloads sharing an ACE
    family prefix — hit the same cache line and skip the mount+check round
    entirely. Reports are still emitted per occurrence with their own crash
    point, so finding sets are byte-identical with the cache on or off.

    Thread-safe: one table behind a mutex, which {!find}, {!add} and
    {!entries} take, so a verdict added on one domain is visible to every
    other domain at once. With several domains hit counts depend on
    scheduling, but findings never do; in one domain they are
    deterministic. *)

type t

val create : unit -> t
(** A fresh, empty cache. Create one per campaign/fuzz run: entries are only
    valid for a single driver instance (e.g. buggy and clean NOVA share the
    ["nova"] name but mount differently). *)

type ckey
(** A cache key: structurally the phase prefix plus the raw image digest, so
    building one per crash state allocates a tuple, not a rendered string. *)

val prefix : fs:string -> phase_digest:string -> string
(** The per-phase half of the key; memoize one per (workload, phase) and
    feed it to {!key_of} for every crash state of that phase. *)

val key_of : prefix:string -> image_digest:int -> ckey
(** Cache key for one crash state, from a memoized {!prefix}. O(1). *)

val key : fs:string -> image_digest:int -> phase_digest:string -> ckey
(** [key_of ~prefix:(prefix ~fs ~phase_digest) ~image_digest]. *)

val phase_digest : Oracle.t -> calls:string array -> Checker.phase -> string
(** The oracle slice for [phase]: the [During]/[After] syscall
    text and fsync target plus the pre/post boundary digests — no tree is
    walked or serialized. [calls] is the pre-rendered workload
    ([Vfs.Syscall.to_string] per call). *)

val find : t -> ckey -> Report.kind list option
(** [Some []] means "cached as consistent"; [None] means not cached yet. *)

val add : t -> ckey -> Report.kind list -> unit
(** Record a verdict; an entry already present under [key] is kept. *)

val entries : t -> int
(** Number of entries added so far. *)
