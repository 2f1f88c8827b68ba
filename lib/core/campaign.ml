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
  oracle_reused : int;
  elapsed : float;
  max_in_flight : int;
}

let run ?(exec = Run.default_exec) ?(budget = Run.unlimited) driver suite =
  let t0 = Unix.gettimeofday () in
  (* A campaign's unit of execution is one workload, so [max_execs] is
     enforced up front by truncating the suite. *)
  let suite = match budget.Run.max_execs with None -> suite | Some m -> Seq.take m suite in
  (* Live early-stop state, updated under its own lock as workloads finish
     (in completion order). It only decides when to stop dispatching; the
     returned result is merged deterministically below. *)
  let live : unit Run.findings = Run.findings budget in
  let live_lock = Mutex.create () in
  let stop () =
    Run.out_of_budget budget ~execs:0
      ~seconds:(Unix.gettimeofday () -. t0)
      ~findings:(Mutex.protect live_lock (fun () -> Run.count live))
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
    Mutex.protect live_lock (fun () -> Run.add live r.Harness.reports (fun _ _ -> ()));
    (r.Harness.reports, r.Harness.stats, done_at)
  in
  let completed = Pool.map ~jobs:(Run.effective_jobs exec) ~stop work suite in
  (* Deterministic merge: completed workloads arrive sorted by workload
     index, so fingerprint dedup ties always resolve to the lowest index,
     independent of domain scheduling. *)
  let found = Run.findings budget in
  let states = ref 0 and points = ref 0 and dedups = ref 0 and vhits = ref 0 in
  let truncated = ref 0 and max_if = ref 0 and reused = ref 0 in
  List.iter
    (fun (index, (workload_name, _), (reports, (s : Harness.stats), elapsed)) ->
      states := !states + s.Harness.crash_states;
      points := !points + s.Harness.crash_points;
      dedups := !dedups + s.Harness.dedup_hits;
      vhits := !vhits + s.Harness.vcache_hits;
      truncated := !truncated + s.Harness.truncated_points;
      reused := !reused + s.Harness.oracle_reused;
      max_if := max !max_if s.Harness.max_in_flight;
      Run.add found reports (fun fingerprint report ->
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
    crash_states = !states;
    crash_points = !points;
    dedup_hits = !dedups;
    vcache_hits = !vhits;
    truncated_points = !truncated;
    oracle_reused = !reused;
    elapsed = Unix.gettimeofday () -. t0;
    max_in_flight = !max_if;
  }
