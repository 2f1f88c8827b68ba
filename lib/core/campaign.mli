(** Campaign runner: drive the harness over a suite of workloads and record
    when each unique bug surfaced — the measurement behind the paper's
    Figure 3 (cumulative time to find bugs) and the section 4.3 suite
    statistics.

    One entry point, {!run}, configured by the shared {!Run.exec} /
    {!Run.budget} records: [exec.jobs = 1] tests workloads sequentially in
    suite order in the calling domain; [jobs > 1] shards the suite across
    OCaml 5 domains (see {!Pool}). Either way each workload's result is
    merged as it arrives, in workload-index order ({!Pool.iter}), so every
    job count produces the same finding fingerprints attributed to the same
    workload indices, and a campaign keeps its findings and summed stats,
    never a per-workload result list. *)

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
          false]. A function of the workloads alone: equal at any job
          count. *)
  vcache_hits : int;
      (** Crash states whose verdict came from the campaign-wide {!Vcache}
          (summed {!Harness.stats.vcache_hits}); [0] when the campaign ran
          with [exec.use_vcache = false]. It (like the memo counters)
          varies with scheduling at [jobs > 1]; findings do not. *)
  truncated_points : int;
      (** Summed {!Harness.stats.truncated_points}: crash points where
          {!Harness.max_states_per_point} skipped crash states. *)
  states_skipped : int;
      (** Summed {!Harness.stats.states_skipped}: the crash states those
          cuts dropped. *)
  oracle_reused : int;
      (** Summed {!Harness.stats.oracle_reused}: oracle boundaries served
          by the verdict cache's call-prefix trie. Like the hit counts it
          varies with scheduling at [jobs > 1]. *)
  points_reused : int;
      (** Summed {!Harness.stats.points_reused}: crash points whose state
          digests the verdict cache's memo served. Varies with scheduling
          at [jobs > 1]. *)
  probes_reused : int;
      (** Summed {!Harness.stats.probes_reused}: usability probes the
          verdict cache's per-image memo answered. Varies with scheduling
          at [jobs > 1]. *)
  vcache_sizes : Vcache.sizes option;
      (** The campaign's verdict-cache table sizes at the end ([None] with
          [exec.use_vcache = false]). *)
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
    lowest index (see {!Run.findings}). The merge runs under the pool lock
    as each result's turn comes: stats and findings accumulate there, and
    the per-workload reports are dropped once merged. Each event holds the report as
    found; a caller that wants reproducers maps [Shrink.Minimize.rewrite]
    over [events] afterwards, paying once per unique bug.

    Budget caps: [max_execs] truncates the suite up front (one workload is
    one execution); [max_seconds] and [stop_after_findings] stop the
    campaign from dispatching further workloads once satisfied — in-flight
    workloads still complete (and are merged). [stop_after_findings] reads
    the merged finding count, which at [jobs = 1] is current before each
    dispatch, so the campaign stops right after the workload that reaches
    the cap. With [jobs > 1] a finding counts only once every lower-index
    workload has been merged, so [workloads_run] may exceed the sequential
    count by the workloads in flight or waiting to be merged. The [events] list holds at most [stop_after_findings]
    entries.

    When [exec.use_vcache] is set (the default), the campaign creates one
    {!Vcache} and threads it through every harness call; worker domains
    see each other's verdicts as soon as they are added. Finding sets are
    identical with the cache on or off, at any job count. *)
