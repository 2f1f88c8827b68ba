(** The gray-box fuzzing front end (the Syzkaller analogue, paper section
    3.4.2): generate workloads by genetic mutation of a seed corpus, guided
    by coverage points in the file systems under test, and run each
    candidate through the Chipmunk harness.

    Coverage comes from {!Cov} marks placed in file-system code — the
    stand-in for compiler-inserted coverage instrumentation. Workloads that
    reach new points are kept as seeds. Reports are deduplicated by
    fingerprint and clustered for triage.

    {2 Epochs and determinism}

    The campaign runs in the calling domain, in {e epochs} of {!epoch_len}
    executions. Every execution slot derives its own RNG stream from
    [(rng_seed, epoch, slot)] and mutates seeds drawn from the corpus
    snapshot taken at the epoch boundary; new-coverage seeds join the
    corpus at the next boundary, in execution order. Each execution's
    coverage is the set of points {!Cov.collect} saw while it ran.

    A run is therefore a pure function of [rng_seed] and the config: the
    same seed gives the identical finding fingerprints, [at_exec]
    attributions, corpus, coverage and cache hit counts — unless the
    [max_seconds] cap fires, which is the one wall-clock-dependent
    stop. *)

val epoch_len : int
(** Executions per epoch (the corpus-snapshot granularity): 32. *)

type config = {
  rng_seed : int;
  budget : Chipmunk.Run.budget;
      (** [max_execs], [max_seconds] and [stop_after_findings] apply
          (checked at epoch granularity — a cap firing mid-epoch stops the
          campaign at that epoch's boundary, except [max_seconds], which
          is also checked before each execution). *)
  exec : Chipmunk.Run.exec;
      (** [opts] is applied to every execution (the default caps replayed
          writes at 2 per crash state, as the paper runs the fuzzer so
          outlier tests cannot stall the campaign); [use_vcache] gives the
          run one verdict cache; [jobs] is ignored (the fuzzer always runs
          in the calling domain). *)
}

val default_config : config
(** Seed 1, budget of 2000 execs / 60 s, harness cap 2. Freshly generated
    programs are at most 14 calls long. *)

val config :
  ?rng_seed:int ->
  ?budget:Chipmunk.Run.budget ->
  ?exec:Chipmunk.Run.exec ->
  unit ->
  config
(** Constructor; omitted fields default to {!default_config}'s values. *)

type event = {
  fingerprint : string;
  report : Chipmunk.Report.t;
  at_exec : int;
      (** 1-based index of the execution that found it. *)
  elapsed : float;
      (** Wall-clock completion time (seconds since campaign start) of the
          execution that found it — the same contract as
          {!Chipmunk.Campaign.event.elapsed}. Deterministic in {e which}
          execution it names, not in its value. *)
  workload : Vfs.Syscall.t list;
}

type result = {
  execs : int;
  crash_points : int;  (** Summed {!Chipmunk.Harness.stats.crash_points}. *)
  crash_states : int;
  coverage : int;
      (** Distinct coverage points reached across all executions (the
          union of per-execution hit sets). *)
  corpus_size : int;
  dedup_hits : int;
      (** Summed {!Chipmunk.Harness.stats.dedup_hits}; [0] with
          [exec.use_vcache = false]. A function of the programs run alone,
          so deterministic per seed. *)
  vcache_hits : int;
      (** Crash states answered from the run-wide verdict cache (summed
          {!Chipmunk.Harness.stats.vcache_hits}); [0] with
          [exec.use_vcache = false]. It depends on what earlier programs
          stored; the fuzzer runs in one domain, so it is deterministic
          per seed, like every other count in this record. *)
  truncated_points : int;
      (** Summed {!Chipmunk.Harness.stats.truncated_points}: crash points
          where {!Chipmunk.Harness.max_states_per_point} skipped crash states. *)
  states_skipped : int;
      (** Summed {!Chipmunk.Harness.stats.states_skipped}: the crash states
          those cuts dropped. *)
  oracle_reused : int;
      (** Summed {!Chipmunk.Harness.stats.oracle_reused}: oracle boundaries
          served by the verdict cache's call-prefix trie. *)
  points_reused : int;
      (** Summed {!Chipmunk.Harness.stats.points_reused}: crash points whose
          state digests the verdict cache's memo served. *)
  probes_reused : int;
      (** Summed {!Chipmunk.Harness.stats.probes_reused}: usability probes
          the verdict cache's per-image memo answered. *)
  vcache_sizes : Chipmunk.Vcache.sizes option;
      (** The run's verdict-cache table sizes at the end ([None] with
          [exec.use_vcache = false]). *)
  events : event list;  (** Unique findings in discovery order. *)
  clusters : Triage.cluster list;
      (** Every report occurrence of the run, clustered as it was found
          ({!Triage.add} in execution order); a cluster's [size] counts
          the occurrences it holds, repeats of one finding included. *)
  elapsed : float;
}

val run : ?config:config -> Vfs.Driver.t -> result
(** Run the campaign in the calling domain. *)

val program :
  rng_seed:int -> epoch:int -> slot:int -> Vfs.Syscall.t list array -> Vfs.Syscall.t list
(** The program {!run} executes in [slot] of [epoch], given the corpus
    snapshot taken at that epoch's boundary: a fresh one, or a mutation of
    a corpus seed. *)
