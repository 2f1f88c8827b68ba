(** The record-and-replay pipeline (paper Figure 2): run a workload on an
    instrumented file system, log its PM writes, construct crash states by
    replaying subsets of in-flight writes at every crash point, mount the
    file system on each crash state and check it for consistency.

    Crash points are placed at every store fence ({e during} system calls —
    the paper's key departure from disk-era tools) and at every system-call
    boundary (checking synchrony). For weak (fsync-based) file systems,
    checks run only at fsync/fdatasync/sync boundaries. *)

type opts = {
  cap : int option;
      (** Maximum number of in-flight writes replayed per crash state
          ([None] = exhaustive). The paper finds a cap of 2 exposes every
          bug in its corpus (Observation 7). *)
  coalesce : bool;  (** Fuse logically-related stores (section 3.2). *)
  granularity : Persist.Pm.granularity;
      (** Function-level (Chipmunk, the default) or instruction-level
          (Yat/Vinter-style) write interception — the ablation behind the
          paper's tractability argument in section 3.2. *)
  read_set_heuristic : bool;
      (** Vinter's state-space reduction, which the paper notes Chipmunk
          could adopt by recording PM read functions (section 6.2): at each
          crash point, probe-mount the prefix state while recording PM
          loads, and enumerate subsets only over the in-flight writes that
          recovery actually reads. Each hot subset is checked on two bases:
          the bare prefix, and the prefix with every cold (never-read) unit
          applied — cold writes are invisible to recovery but not to the
          checker, so hot-subset states must also be constructed on the
          base the next crash point builds on. Off by default. *)
}

val default_opts : opts

val max_states_per_point : int
(** Safety valve on subset explosion (512): a crash point's subset
    enumeration stops after this many crash states. *)

type stats = {
  mutable crash_points : int;
  mutable crash_states : int;
  mutable max_in_flight : int;  (** Largest coalesced in-flight vector seen. *)
  mutable dedup_hits : int;
      (** Crash states whose image digest an earlier state of the same
          crash point already looked up in the {!Vcache} (Vinter likewise
          deduplicates crash images by content): an earlier subset there
          built the same image, so this state emits nothing. A function of
          the workload alone, at any job count; [0] without a verdict
          cache. [crash_states] still counts every enumerated state, so the
          mount+check work actually done is
          [crash_states - dedup_hits - vcache_hits]. *)
  mutable vcache_hits : int;
      (** Crash states whose verdict the campaign-wide {!Vcache} served
          from another crash point or workload instead of a mount+check.
          It depends on what other workloads populated the cache first, so
          at [jobs > 1] it (like the memo counters) depends on scheduling.
          Findings are unaffected either way. *)
  mutable truncated_points : int;
      (** Crash points whose subset enumeration was cut short by
          {!max_states_per_point}: some crash states there were never
          built or checked. *)
  mutable states_skipped : int;
      (** The crash states those cuts dropped (saturating at [max_int]). *)
  mutable oracle_reused : int;
      (** Oracle boundaries the {!Vcache}'s call-prefix trie served instead
          of capturing them on Memfs: one more than the number of leading
          calls an earlier program of the campaign already ran. [0]
          without a verdict cache. *)
  mutable points_reused : int;
      (** Checked crash points whose fence-prefix image and in-flight
          writes repeat a point the {!Vcache} memoized: their states were
          looked up by memoized digest, and only the misses among them
          were built. [0] without a verdict cache or under
          [read_set_heuristic]. *)
  mutable probes_reused : int;
      (** Usability probes answered by the {!Vcache}'s per-image probe
          memo instead of run. [0] without a verdict cache. *)
}

val new_stats : unit -> stats
(** All counters zero. *)

val add_stats : into:stats -> stats -> unit
(** Add a run's counters into a total: sums, the larger [max_in_flight],
    and a [states_skipped] sum saturating at [max_int]. *)

type result = {
  reports : Report.t list;  (** Deduplicated by fingerprint, oldest first. *)
  fingerprints : string list;
      (** [List.map Report.fingerprint reports], rendered once per
          verdict-cache entry rather than per report. *)
  stats : stats;
  trace : Persist.Trace.t;
  outcomes : Vfs.Workload.outcome list;
}

type recording = {
  rec_calls : Vfs.Syscall.t list;
  rec_trace : Persist.Trace.t;  (** Full PM write log of the run. *)
  rec_base : Pmem.Image.t;  (** Post-mkfs device image. *)
  rec_outcomes : Vfs.Workload.outcome list;
}
(** A completed phase-1 run (instrumented workload execution), self-contained:
    crash states can be rebuilt from [rec_base] + [rec_trace] any number of
    times without re-running the workload. *)

val record : ?opts:opts -> Vfs.Driver.t -> Vfs.Syscall.t list -> recording
(** Phase 1 only: run [calls] on a fresh instrumented file system and log
    its PM writes. [opts] matters only for [granularity]. The file system
    is formatted on this domain's reusable CPU-view image; [rec_base] is an
    independent snapshot of it, so the recording stays valid after later
    calls. *)

val replay_recorded :
  ?opts:opts ->
  ?vcache:Vcache.t ->
  Vfs.Driver.t ->
  recording ->
  result
(** Phases 2–3 on an existing recording: oracle + crash-state replay, on a
    snapshot of [rec_base] (the recording stays reusable). Equivalent to
    {!test_workload} on the recording's calls, minus the re-recording. *)

val test_workload :
  ?opts:opts ->
  ?vcache:Vcache.t ->
  Vfs.Driver.t ->
  Vfs.Syscall.t list ->
  result
(** Run the full pipeline ({!record} then replay) for one workload on one
    file system. Every crash point of the workload is checked; a run of
    many workloads stops early only between workloads, through its
    {!Run.budget}.

    Each domain keeps one (CPU view, replay) image pair of the device's
    size and reuses it across calls, so a call allocates no device image.
    A call takes the pair out of its slot while it runs: a nested call on
    the same domain (say, from inside a driver's [mkfs]) makes its own
    pair, and a call that raises drops its pair. Results are the same as
    on fresh images.

    [vcache], when given, memoizes checker verdicts campaign-wide (states
    that repeat an image digest at their own crash point are skipped
    before the lookup), and serves the
    oracle boundaries of call prefixes earlier programs ran (see
    {!Vcache}). It also memoizes each distinct crash point's state
    digests, so a repeat point's states are looked up without being
    built, and each crash image's usability probe result. Every state
    whose lookup misses, on a fresh or a repeat point, is built (again)
    and must digest to the key it was looked up under: the run raises
    [Failure] otherwise, which also catches a rollback that did not
    restore the prefix exactly. Without it every enumerated state is
    mounted and checked and the oracle is {!Oracle.run}. Findings are
    identical with or without it. *)

(** {1 Crash states}

    The one definition of how a recording becomes crash states, shared by
    the replay loop above and by {!Reproduce}. *)

type crash_point = {
  fence_no : int;  (** 1-based index among all fences and syscall ends. *)
  phase : Checker.phase;  (** Outside a syscall, [After] the last one done. *)
  after_syscall : int option;  (** Last completed syscall. *)
  at_fence : bool;  (** A store fence, not a syscall boundary. *)
  in_flight : Coalesce.t list;
      (** Oldest first. A crash state is the fence prefix plus the units a
          report's [subset] names, applied in this order. *)
}

val walk :
  ?opts:opts -> replay:Pmem.Image.t -> Persist.Trace.t -> (crash_point -> unit) -> unit
(** Call [f] at every crash point of a trace, with [replay] (starting as
    the recording's [rec_base]) holding the fully-fenced prefix; at a fence,
    then apply the in-flight vector to [replay]. Only [opts.coalesce]
    matters. An exception from [f] stops the walk at that point. *)

val point_key : ?opts:opts -> replay:Pmem.Image.t -> crash_point -> int * int
(** What fixes a crash point's states, the key under which a {!Vcache}
    memoizes their digests ({!Vcache.point}): the digest of
    [replay] holding the point's fence prefix (as {!walk} passes it), and
    a signature of the in-flight units' (address, bytes) parts, in order,
    and of [opts.cap]. Two points with equal keys enumerate states with
    equal digests, in the same order. *)

val mount_and_check :
  Vfs.Driver.t ->
  workload:Vfs.Syscall.t list ->
  oracle:Oracle.t ->
  phase:Checker.phase ->
  Pmem.Image.t ->
  Report.kind list
(** Mount the crash image, walk the recovered tree and check it against
    the oracle at [phase]; when that passes, run the usability probe
    (create a file in every directory, then delete everything). Never
    raises: failures become report kinds. Recovery and the probe write the
    image; to keep it, open an {!Pmem.Image.checkpoint} before and
    {!Pmem.Image.rollback} after.
    [] means the state is consistent. *)
