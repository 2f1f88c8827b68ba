type event = {
  fingerprint : string;
  report : Report.t;
  workload_name : string;
  workload_index : int;
  elapsed : float;
}

type result = {
  events : event list;
  workloads_run : int;
  crash_states : int;
  crash_points : int;
  dedup_hits : int;
  vcache_hits : int;
  truncated_points : int;
  states_skipped : int;
  oracle_reused : int;
  points_reused : int;
  probes_reused : int;
  vcache_sizes : Vcache.sizes option;
  elapsed : float;
  max_in_flight : int;
}

let run ?(exec = Run.default_exec) ?(budget = Run.unlimited) driver suite =
  let t0 = Unix.gettimeofday () in
  (* A campaign's unit of execution is one workload, so [max_execs] is
     enforced up front by truncating the suite. *)
  let suite = match budget.Run.max_execs with None -> suite | Some m -> Seq.take m suite in
  (* [Pool.iter] calls [stop] and the merge below under one lock, so
     [stop] reads the merged finding count directly. *)
  let found = Run.findings budget in
  let total = Harness.new_stats () in
  let workloads_run = ref 0 in
  let stop () =
    Run.out_of_budget budget ~execs:0
      ~seconds:(Unix.gettimeofday () -. t0)
      ~findings:(Run.count found)
  in
  (* One verdict cache for the whole campaign (when enabled), shared by
     every worker domain. Never reused across campaigns — the entries are
     only valid for this [driver] instance. *)
  let vcache = if exec.Run.use_vcache then Some (Vcache.create ()) else None in
  (* Keep only what the merge reads: the workload's trace and outcomes
     would otherwise stay alive until the merge reaches it. *)
  let work (_name, workload) =
    let r = Harness.test_workload ~opts:exec.Run.opts ?vcache driver workload in
    (r.Harness.reports, r.Harness.fingerprints, r.Harness.stats, Unix.gettimeofday () -. t0)
  in
  (* Deterministic merge: results arrive in workload-index order, so
     fingerprint dedup ties always resolve to the lowest index, independent
     of domain scheduling. *)
  Pool.iter ~jobs:(Run.effective_jobs exec) ~stop work suite
    (fun index (workload_name, _) (reports, fingerprints, stats, elapsed) ->
      incr workloads_run;
      Harness.add_stats ~into:total stats;
      Run.add found ~fingerprints reports (fun fingerprint report ->
          { fingerprint; report; workload_name; workload_index = index; elapsed }));
  {
    events = Run.events found;
    workloads_run = !workloads_run;
    crash_states = total.Harness.crash_states;
    crash_points = total.Harness.crash_points;
    dedup_hits = total.Harness.dedup_hits;
    vcache_hits = total.Harness.vcache_hits;
    truncated_points = total.Harness.truncated_points;
    states_skipped = total.Harness.states_skipped;
    oracle_reused = total.Harness.oracle_reused;
    points_reused = total.Harness.points_reused;
    probes_reused = total.Harness.probes_reused;
    vcache_sizes = Option.map Vcache.sizes vcache;
    elapsed = Unix.gettimeofday () -. t0;
    max_in_flight = total.Harness.max_in_flight;
  }
