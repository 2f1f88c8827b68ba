(** Campaign runner: drive the harness over a suite of workloads and record
    when each unique bug surfaced — the measurement behind the paper's
    Figure 3 (cumulative time to find bugs) and the section 4.3 suite
    statistics.

    One entry point, {!run}, configured by the shared {!Run.exec} /
    {!Run.budget} records: [exec.jobs = 1] tests workloads sequentially in
    suite order in the calling domain; [jobs > 1] shards the suite across
    OCaml 5 domains (see {!Pool}) and merges results in workload-index
    order, so every job count produces the same finding fingerprints
    attributed to the same workload indices. *)

type event = {
  fingerprint : string;
  report : Report.t;
  workload_name : string;
  workload_index : int;  (** Position of the workload in the suite. *)
  elapsed : float;
      (** Wall-clock completion time (seconds since campaign start) of the
          workload that found it — the same contract at every job count. *)
}

type result = {
  events : event list;  (** Unique findings, in discovery order. *)
  workloads_run : int;
  crash_states : int;
  crash_points : int;
  dedup_hits : int;
      (** Summed {!Harness.stats.dedup_hits}; [0] with [exec.use_vcache =
          false]. Like [vcache_hits], it varies with scheduling at [jobs > 1]. *)
  vcache_hits : int;
      (** Crash states whose verdict came from the campaign-wide {!Vcache}
          (summed {!Harness.stats.vcache_hits}); [0] when the campaign ran
          with [exec.use_vcache = false]. Hit counts vary with scheduling
          at [jobs > 1]; findings do not. *)
  truncated_points : int;
      (** Summed {!Harness.stats.truncated_points}: crash points where
          {!Harness.max_states_per_point} skipped crash states. *)
  oracle_reused : int;
      (** Summed {!Harness.stats.oracle_reused}: oracle boundaries served
          by the verdict cache's call-prefix trie. Like the hit counts it
          varies with scheduling at [jobs > 1]. *)
  elapsed : float;
  max_in_flight : int;
}

val run :
  ?exec:Run.exec ->
  ?budget:Run.budget ->
  Vfs.Driver.t ->
  (string * Vfs.Syscall.t list) Seq.t ->
  result
(** Run the suite under [exec] (how: harness opts, verdict cache, worker
    domains) within [budget] (when to stop), deduplicating findings by
    fingerprint across the whole campaign. Defaults: {!Run.default_exec}
    and {!Run.unlimited}.

    Each worker runs {!Harness.test_workload} on its domain's own device
    images, so no harness state is shared. Findings, their fingerprints and
    their [workload_index] attributions are deterministic across job counts
    because results are merged in workload-index order with ties broken by
    lowest index (see {!Run.findings}). Each event holds the report as
    found; a caller that wants reproducers maps [Shrink.Minimize.rewrite]
    over [events] afterwards, paying once per unique bug.

    Budget caps: [max_execs] truncates the suite up front (one workload is
    one execution); [max_seconds] and [stop_after_findings] stop the
    campaign from dispatching further workloads once satisfied — in-flight
    workloads still complete (and are merged), so with [jobs > 1] and one
    of these set, [workloads_run] may exceed what a sequential run would
    have executed. The [events] list holds at most [stop_after_findings]
    entries.

    When [exec.use_vcache] is set (the default), the campaign creates one
    {!Vcache} and threads it through every harness call; worker domains
    see each other's verdicts as soon as they are added. Finding sets are
    identical with the cache on or off, at any job count. *)
