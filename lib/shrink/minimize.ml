module R = Chipmunk.Report
module S = Vfs.Syscall

type culprit = {
  seq : int;
  addr : int;
  len : int;
  kind : string;
  func : string;
  syscall : int option;
  syscall_name : string option;
}

type stats = {
  ops_before : int;
  ops_after : int;
  subset_before : int;
  subset_after : int;
  harness_runs : int;
  check_runs : int;
}

type outcome = { report : R.t; stats : stats; culprits : culprit list }

(* fd-var closure: walk the candidate in order, keeping track of which
   fd-vars a surviving creat/open has bound, and drop any call that uses one
   the input binds but the candidate has not bound yet. An fd-var the input
   never binds (the fuzzer's -1, say) was already unbound in the input, so
   its uses stay. A close does not unbind — the original program may
   legally probe a closed descriptor (the executor answers EBADF), and a
   repair must never be stricter than the program it repairs. *)
let repair_fds ~input calls =
  let bindable =
    List.filter_map
      (function S.Creat { fd_var; _ } | S.Open { fd_var; _ } -> Some fd_var | _ -> None)
      input
  in
  let bound : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.filter
    (fun call ->
      match call with
      | S.Creat { fd_var; _ } | S.Open { fd_var; _ } ->
        Hashtbl.replace bound fd_var ();
        true
      | S.Close { fd_var }
      | S.Write { fd_var; _ }
      | S.Pwrite { fd_var; _ }
      | S.Read { fd_var; _ }
      | S.Lseek { fd_var; _ }
      | S.Fallocate { fd_var; _ }
      | S.Fsync { fd_var }
      | S.Fdatasync { fd_var } ->
        Hashtbl.mem bound fd_var || not (List.mem fd_var bindable)
      | S.Mkdir _ | S.Link _ | S.Unlink _ | S.Remove _ | S.Rename _ | S.Truncate _
      | S.Rmdir _ | S.Sync | S.Setxattr _ | S.Removexattr _ ->
        true)
    calls

let with_subset (report : R.t) subset =
  { report with R.crash_point = { report.R.crash_point with R.subset } }

let calls_key calls = String.concat "\n" (List.map S.to_string calls)
let subset_key subset = String.concat "," (List.map string_of_int subset)

(* Phase 1: ddmin over the workload. Each probe repairs the candidate,
   runs it through {!Chipmunk.Harness.test_workload} — the same record,
   walk and check every campaign uses — and asks whether any report still
   carries the target fingerprint. The report for the winning candidate is
   re-derived from its own run, so its crash point (fence numbering,
   syscall indices, subset) is consistent with the shorter trace. Probes
   share a per-minimization {!Chipmunk.Vcache}: candidates share most of
   their crash states, so verdicts memoized on one probe answer the next. *)
let minimize_workload ~opts driver (report : R.t) =
  let target = R.fingerprint report in
  let runs = ref 0 in
  let vcache = Chipmunk.Vcache.create () in
  let matched : (string, R.t) Hashtbl.t = Hashtbl.create 16 in
  let probe calls =
    incr runs;
    let r = Chipmunk.Harness.test_workload ~opts ~vcache driver calls in
    match List.find_opt (fun r' -> R.fingerprint r' = target) r.Chipmunk.Harness.reports with
    | Some r' ->
      Hashtbl.replace matched (calls_key calls) r';
      true
    | None -> false
  in
  let repair = repair_fds ~input:report.R.workload in
  let test candidate = match repair candidate with [] -> false | calls -> probe calls in
  let minimized, _ = Ddmin.run ~test report.R.workload in
  let calls = repair minimized in
  let final =
    match Hashtbl.find_opt matched (calls_key calls) with
    | Some r' -> Some r'
    | None ->
      (* ddmin made no progress (every probe failed, e.g. mismatched opts):
         fall back to the input report rather than probing again. *)
      if calls = report.R.workload then Some report else None
  in
  (final, !runs)

(* Phase 2: ddmin over the replayed in-flight subset, using the
   deterministic crash-state rebuild as the probe. A candidate passes when
   the rebuilt state still checks to a kind with the target fingerprint. *)
let minimize_subset ~opts driver (report : R.t) =
  let target = R.fingerprint report in
  let runs = ref 0 in
  let matched : (string, R.kind) Hashtbl.t = Hashtbl.create 16 in
  let test subset =
    incr runs;
    let candidate = with_subset report subset in
    match Chipmunk.Reproduce.crash_state ~opts driver candidate with
    | Error _ -> false
    | Ok cs -> (
      let kinds = cs.Chipmunk.Reproduce.check () in
      match
        List.find_opt (fun k -> R.fingerprint { candidate with R.kind = k } = target) kinds
      with
      | Some k ->
        Hashtbl.replace matched (subset_key subset) k;
        true
      | None -> false)
  in
  let minimized, _ = Ddmin.run ~test report.R.crash_point.R.subset in
  let kind =
    Option.value (Hashtbl.find_opt matched (subset_key minimized)) ~default:report.R.kind
  in
  ({ (with_subset report minimized) with R.kind }, !runs)

let syscall_name workload = function
  | None -> None
  | Some i -> Option.map S.to_string (List.nth_opt workload i)

(* Per-write culprit annotations for the surviving subset: address span,
   byte count and the persist operation (function + issuing syscall) each
   unit came from. *)
let culprits_of ~opts driver (report : R.t) =
  match Chipmunk.Reproduce.in_flight_at ~opts driver report with
  | Error _ -> []
  | Ok units ->
    List.filter_map
      (fun (u : Chipmunk.Coalesce.t) ->
        if List.mem u.Chipmunk.Coalesce.seq report.R.crash_point.R.subset then begin
          let lo, hi = Chipmunk.Coalesce.span u in
          Some
            {
              seq = u.Chipmunk.Coalesce.seq;
              addr = lo;
              len = hi - lo;
              kind =
                (match u.Chipmunk.Coalesce.kind with
                | Persist.Trace.Nt -> "nt"
                | Persist.Trace.Flushed_line -> "clwb");
              func = u.Chipmunk.Coalesce.func;
              syscall = u.Chipmunk.Coalesce.syscall;
              syscall_name = syscall_name report.R.workload u.Chipmunk.Coalesce.syscall;
            }
        end
        else None)
      units

let run ?(opts = Chipmunk.Harness.default_opts) driver (report : R.t) =
  let target = R.fingerprint report in
  let ops_before = List.length report.R.workload in
  let subset_before = List.length report.R.crash_point.R.subset in
  match minimize_workload ~opts driver report with
  | None, _ -> Error "the report does not reproduce under this driver and these options"
  | Some wl_min, harness_runs ->
    let final, check_runs = minimize_subset ~opts driver wl_min in
    if R.fingerprint final <> target then
      Error "minimization changed the fingerprint (ddmin accepted a bad candidate)"
    else
      Ok
        {
          report = final;
          stats =
            {
              ops_before;
              ops_after = List.length final.R.workload;
              subset_before;
              subset_after = List.length final.R.crash_point.R.subset;
              harness_runs;
              check_runs;
            };
          culprits = culprits_of ~opts driver final;
        }

let rewrite ?opts driver report =
  match run ?opts driver report with Ok o -> o.report | Error _ -> report
