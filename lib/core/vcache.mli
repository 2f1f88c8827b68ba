(** Campaign-wide verdict cache.

    Memoizes {!Checker.check} verdicts (the list of {!Report.kind}s, possibly
    empty, each with its rendered fingerprint) for one driver instance,
    under a key that captures everything else the verdict can depend on:
    the crash phase's oracle slice ({!phase_key}: rendered syscall +
    digests of the pre/post trees it is judged against + the fsync target
    for weak systems), interned to an int id, and the crash image's
    content {!Pmem.Image.digest}. The syscall {e index} is deliberately
    absent, so equivalent crash states reached at different positions — or
    in different workloads sharing an ACE family prefix — hit the same
    cache line and skip the mount+check round entirely. Reports are still
    emitted per occurrence with their own crash point, so finding sets are
    byte-identical with the cache on or off. An entry is an immutable,
    interned value; which crash point looked a key up is not recorded
    (the harness tells repeats at one point apart itself).

    Two per-image memos ride along: the state digests of each distinct
    crash point ({!point}), so a repeat point builds no image to look its
    states up, and the usability probe's result per crash image
    ({!probe}). Like {!verdict}, each is one find-or-run call.

    Thread-safe: the verdicts, phase ids and memos sit behind one mutex,
    which every function here takes, so an entry added on one domain is
    visible to every other domain at once; the call-prefix trie
    ({!program}) has a lock of its own. With several domains whether a
    lookup hits depends on scheduling, but findings never do; in one
    domain it is deterministic. *)

type t

val create : unit -> t
(** A fresh, empty cache. Create one per campaign/fuzz run: entries are only
    valid for a single driver instance, and keys do not name it (buggy and
    clean NOVA share the ["nova"] name but mount differently, so a name
    would not tell them apart). *)

type phase_key =
  | Initial of int  (** The empty prefix's boundary digest. *)
  | During of string * int * int
      (** The call's text and the digests of the boundaries before and
          after it. *)
  | After of string * string option * int
      (** The call's text, its fsync target ({!Oracle.target}) and the
          digest of the boundary after it. *)
(** The oracle slice a verdict depends on at one crash phase, as a plain
    value: the checker reads nothing else from the oracle or the
    workload. Trees enter as their boundary digests, so no tree is walked
    or serialized. *)

val phase_key : Oracle.t -> text:(int -> string) -> Checker.phase -> phase_key
(** The key of [phase] in a program with oracle [oracle], where [text i]
    is [Vfs.Syscall.to_string] of call [i]. O(1) beyond [text]. {!phase}
    builds a program's keys through the trie, once per call prefix and
    phase. *)

val phase_id : t -> phase_key -> int
(** The phase key's id in this cache: equal keys get equal ids, distinct
    keys distinct ones. Intern each phase once and share the id across
    every crash state of that phase. *)

type key = int * int
(** A cache key: a {!phase_id} and a crash image's {!Pmem.Image.digest}. *)

type verdict = (Report.kind * string) list
(** A state's {!Checker.check} kinds ([[]] means "consistent"), each with
    its {!Report.fingerprint}. A fingerprint is a function of the key (the
    phase fixes the crash context, the cache the file system), so a hit
    renders none. *)

val verdict : t -> key -> (unit -> verdict) -> verdict * bool
(** [verdict t key run] is the verdict cached under [key], running [run]
    (outside the lock) only when none is, and whether it was cached. When
    two domains miss on one key, the first verdict stored wins. Stored
    verdicts are interned: equal verdicts under different keys are one
    physically shared value. *)

val entries : t -> int
(** Number of keys with a cached verdict. *)

(** {1 Per-image memos} *)

val point : t -> int * int -> (unit -> int array) -> int array * bool
(** [point t key run] is the image digests of a crash point's states, in
    enumeration order, memoized under the point's content (the harness's
    [point_key]: its fence-prefix image digest and a signature of its
    in-flight writes and of whatever else picks its subsets), running
    [run] only when none are memoized, and whether they were. The
    digests are trusted only as lookup keys: the harness rebuilds every
    state whose verdict lookup misses and raises unless it digests as
    served. *)

val probe : t -> int -> (unit -> string option) -> string option * bool
(** [probe t digest run] is the usability probe's result on the crash
    image with [digest], running [run] only the first time that image is
    probed, and whether the result was reused. The probe reads only the
    mounted handle and its tree, both functions of the image. *)

type sizes = {
  verdict_entries : int;  (** {!entries}. *)
  phase_ids : int;  (** Distinct phase keys interned. *)
  trie_nodes : int;  (** Call prefixes in the trie, the empty one aside. *)
  point_memo : int;  (** Distinct crash points with memoized digests. *)
  probe_memo : int;  (** Distinct crash images probed. *)
}

val sizes : t -> sizes
(** How large each table has grown. None is ever pruned: evicting would
    change which states hit. *)

(** {1 Call-prefix trie}

    Programs in a campaign share long call prefixes (ACE builds its
    suites that way, and the fuzzer mutates corpus programs). A prefix
    determines its oracle boundaries ({!Oracle.boundary}) and the phase
    keys of its calls, so the cache keeps them in a trie keyed by
    {!Vfs.Syscall.t}, one node per distinct prefix, shared by every
    domain under its own lock: a node holds the boundary after its last
    call and the {!phase_id}s of that call's [During] and [After]
    phases, each interned when first looked up ({!phase}). The harness
    looks up only the phases {!Checker.judged} admits, so only those get
    an id: the cache itself has no notion of which phases a driver
    judges. *)

type program
(** One program's calls resolved against the trie. *)

val program : t -> Vfs.Syscall.t list -> program
(** Look up [calls], capturing and digesting on Memfs only the boundaries
    the trie lacks (none, and no Memfs run at all, when the whole program
    is known), and add the new ones. Interns no phase. *)

val oracle : program -> Oracle.t
(** Equal to [Oracle.run calls]. *)

val phase : program -> Checker.phase -> int
(** The {!phase_id} of the phase's {!phase_key} in this program,
    interned on the first lookup of that phase of that call prefix and
    read off its trie node after. *)

val reused : program -> int
(** Boundaries served by the trie instead of captured: one more than the
    number of leading calls it already held (the empty prefix's boundary
    is captured once, by {!create}). *)
