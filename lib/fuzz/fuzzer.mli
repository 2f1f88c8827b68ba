(** The gray-box fuzzing front end (the Syzkaller analogue, paper section
    3.4.2): generate workloads by genetic mutation of a seed corpus, guided
    by coverage points in the file systems under test, and run each
    candidate through the Chipmunk harness.

    Coverage comes from {!Cov} marks placed in file-system code — the
    stand-in for compiler-inserted coverage instrumentation. Workloads that
    reach new points are kept as seeds. Reports are deduplicated by
    fingerprint and clustered for triage.

    {2 Sharding and determinism}

    The campaign proceeds in {e epochs} of {!epoch_len} executions. Every
    execution slot derives its own RNG stream from
    [(rng_seed, epoch, slot)] and mutates seeds drawn from the corpus
    snapshot taken at the epoch boundary; the slots of one epoch are
    therefore independent and are sharded across [jobs] worker domains via
    {!Chipmunk.Pool}, each execution building its own device image inside
    {!Chipmunk.Harness.test_workload}. Workers record per-execution
    coverage in their domain-local {!Cov} table (the global set is
    [Atomic]-backed, so cross-domain counting is race-free) and publish
    new-coverage seeds and findings at the epoch barrier, where results
    are merged in execution-index order with fingerprint ties resolved to
    the lowest index.

    Because nothing in that pipeline depends on the worker count, a run
    with [exec.jobs = 4] reports the {e identical} finding fingerprints,
    corpus and coverage counts, and [at_exec] attributions as
    [exec.jobs = 1] for the same [rng_seed] — unless the [max_seconds] cap fires, which is the one
    inherently wall-clock-dependent stop. The run-wide verdict cache
    ({!Chipmunk.Vcache}, on by default via [exec.use_vcache]) preserves
    this: a cache hit replays the exact kinds the checker would compute,
    so only the hit {e counts} vary with scheduling. *)

val epoch_len : int
(** Executions per epoch (the corpus-sync granularity): 32. *)

type config = {
  rng_seed : int;
  max_len : int;  (** Maximum generated program length. *)
  budget : Chipmunk.Run.budget;
      (** [max_execs], [max_seconds] and [stop_after_findings] apply
          (checked at epoch granularity — a cap firing mid-epoch stops the
          campaign at that epoch's boundary, except [max_seconds], which
          also stops dispatching within the epoch). *)
  exec : Chipmunk.Run.exec;
      (** [opts] is applied to every execution (the default caps replayed
          writes at 2 per crash state, as the paper runs the fuzzer so
          outlier tests cannot stall the campaign); [minimize] runs on each
          unique finding after dedup, in the merge phase, and never past
          [stop_after_findings] (see {!Chipmunk.Run.findings}); [jobs] is
          the worker-domain count ([0] = one per core). *)
}

val default_config : config
(** Seed 1, programs up to 14 calls, budget of 2000 execs / 60 s, harness
    cap 2, one worker domain. *)

val config :
  ?rng_seed:int ->
  ?max_len:int ->
  ?budget:Chipmunk.Run.budget ->
  ?exec:Chipmunk.Run.exec ->
  unit ->
  config
(** Constructor; omitted fields default to {!default_config}'s values. *)

type event = {
  fingerprint : string;
  report : Chipmunk.Report.t;
  at_exec : int;
      (** 1-based index of the execution that found it, in deterministic
          merge order — identical across job counts. *)
  elapsed : float;
      (** Wall-clock completion time (seconds since campaign start) of the
          execution that found it — the same contract as
          {!Chipmunk.Campaign.event.elapsed}. Deterministic in {e which}
          execution it names, not in its value. *)
  workload : Vfs.Syscall.t list;
}

type result = {
  execs : int;
  crash_states : int;
  coverage : int;
      (** Distinct coverage points reached across all executions (the
          union of per-execution hit sets — deterministic across job
          counts). *)
  corpus_size : int;
  dedup_hits : int;
      (** Summed per-execution {!Chipmunk.Harness.stats.dedup_hits}
          (deterministic — the dedup cache is per crash point, inside one
          execution). *)
  vcache_hits : int;
      (** Crash states answered from the run-wide verdict cache (summed
          {!Chipmunk.Harness.stats.vcache_hits}); [0] with
          [exec.use_vcache = false]. Unlike everything else in this
          record, the count depends on domain scheduling — findings,
          corpus and coverage do not. *)
  events : event list;  (** Unique findings in discovery order. *)
  clusters : Triage.cluster list;
  elapsed : float;
}

val run : ?config:config -> Vfs.Driver.t -> result
(** Run the campaign on [config.exec.jobs] worker domains. *)
