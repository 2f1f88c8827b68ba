(** Campaign-wide verdict cache.

    Memoizes {!Checker.check} verdicts (the list of {!Report.kind}s, possibly
    empty, each with its fingerprint parts) for one driver instance, under a key that captures everything
    else the verdict can depend on: a digest of the crash phase's oracle
    slice (rendered syscall + the pre/post trees it is judged against + the
    fsync target for weak systems) and the crash image's content
    {!Pmem.Image.digest}. The
    syscall {e index} is deliberately absent, so equivalent crash states
    reached at different positions — or in different workloads sharing an ACE
    family prefix — hit the same cache line and skip the mount+check round
    entirely. Reports are still emitted per occurrence with their own crash
    point, so finding sets are byte-identical with the cache on or off.

    Thread-safe: one table behind a mutex, which {!find}, {!add} and
    {!entries} take, so a verdict added on one domain is visible to every
    other domain at once; the call-prefix trie ({!program}) has a lock of
    its own. With several domains hit counts depend on
    scheduling, but findings never do; in one domain they are
    deterministic. *)

type t

val create : unit -> t
(** A fresh, empty cache. Create one per campaign/fuzz run: entries are only
    valid for a single driver instance, and keys do not name it (buggy and
    clean NOVA share the ["nova"] name but mount differently, so a name
    would not tell them apart). *)

type ckey
(** A cache key: structurally the phase digest plus the raw image digest, so
    building one per crash state allocates a tuple, not a rendered string. *)

val key : phase_digest:string -> image_digest:int -> ckey
(** Cache key for one crash state. O(1): memoize the {!phase_digest} once
    per (workload, phase) and reuse it for every crash state of that
    phase. *)

val phase_digest : Oracle.t -> calls:string array -> Checker.phase -> string
(** The oracle slice for [phase]: the [During]/[After] syscall
    text and fsync target plus the pre/post boundary digests — no tree is
    walked or serialized. [calls] is the pre-rendered workload
    ([Vfs.Syscall.to_string] per call). This is the reference rendering;
    {!phase_key} returns the same strings from the trie. *)

val find : t -> ckey -> point:int -> (Report.verdict list * bool) option
(** [None] if [key] is not cached yet, else the cached verdicts ([[]]
    means "consistent") and whether the entry's last {!find} or {!add}
    came from [point] (an id unique to one crash point), which then
    replaces it. A verdict carries its kind's fingerprint label and
    normalized evidence, so a hit renders a fingerprint by joining
    strings. *)

val add : t -> ckey -> point:int -> Report.verdict list -> unit
(** Record a verdict found at [point]; an entry already present under
    [key] keeps its verdict and takes [point]. *)

val entries : t -> int
(** Number of entries added so far. *)

(** {1 Call-prefix trie}

    Programs in a campaign share long call prefixes (ACE builds its
    suites that way, and the fuzzer mutates corpus programs). A prefix
    determines its oracle boundaries, call targets and returns, and the
    phase keys of its calls, so the cache keeps them in a trie keyed by
    {!Vfs.Syscall.t}, one node per distinct prefix, shared by every
    domain under its own lock. *)

type program
(** One program's calls resolved against the trie. *)

val program : t -> Vfs.Syscall.t list -> program
(** Look up [calls], capturing and digesting on Memfs only the boundaries
    the trie lacks (none, and no Memfs run at all, when the whole program
    is known), and add the new ones. *)

val oracle : program -> Oracle.t
(** Equal to [Oracle.run calls]. *)

val phase_key : program -> Checker.phase -> string
(** Equal to [phase_digest (oracle p) ~calls phase], where [calls] renders
    each call; O(1). *)

val text : program -> int -> string
(** [Vfs.Syscall.to_string] of call [i]. *)

val reused : program -> int
(** Boundaries served by the trie instead of captured: one more than the
    number of leading calls it already held (the empty prefix's boundary
    is captured once, by {!create}). *)
