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
  (* Live early-stop state for [stop_after_findings], updated under its
     own lock as workloads finish (in completion order). It only decides
     when to stop dispatching; the returned result is merged
     deterministically below. Without that cap nothing reads it. *)
  let live =
    Option.map (fun _ -> (Run.findings budget, Mutex.create ())) budget.Run.stop_after_findings
  in
  let stop () =
    Run.out_of_budget budget ~execs:0
      ~seconds:(Unix.gettimeofday () -. t0)
      ~findings:
        (match live with
        | Some (live, lock) -> Mutex.protect lock (fun () -> Run.count live)
        | None -> 0)
  in
  (* One verdict cache for the whole campaign (when enabled), shared by
     every worker domain. Never reused across campaigns — the entries are
     only valid for this [driver] instance. *)
  let vcache = if exec.Run.use_vcache then Some (Vcache.create ()) else None in
  (* Keep only what the merge reads: the workload's trace and outcomes
     would otherwise stay alive until every workload has finished. *)
  let work (_name, workload) =
    let r = Harness.test_workload ~opts:exec.Run.opts ?vcache driver workload in
    let done_at = Unix.gettimeofday () -. t0 in
    let reports = r.Harness.reports and fingerprints = r.Harness.fingerprints in
    Option.iter
      (fun (live, lock) ->
        Mutex.protect lock (fun () -> Run.add live ~fingerprints reports (fun _ _ -> ())))
      live;
    (reports, fingerprints, r.Harness.stats, done_at)
  in
  let completed = Pool.map ~jobs:(Run.effective_jobs exec) ~stop work suite in
  (* Deterministic merge: completed workloads arrive sorted by workload
     index, so fingerprint dedup ties always resolve to the lowest index,
     independent of domain scheduling. *)
  let found = Run.findings budget in
  let total = Harness.new_stats () in
  List.iter
    (fun (index, (workload_name, _), (reports, fingerprints, stats, elapsed)) ->
      Harness.add_stats ~into:total stats;
      Run.add found ~fingerprints reports (fun fingerprint report ->
          {
            fingerprint;
            report;
            workload_name;
            workload_index = index;
            elapsed;
          }))
    completed;
  {
    events = Run.events found;
    workloads_run = List.length completed;
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
