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
  replay_probe_hits : int;
}

type outcome = { report : R.t; stats : stats; culprits : culprit list }

(* fd-var closure: walk the candidate in order, keeping track of which
   fd-vars a surviving creat/open has bound, and drop any call that uses an
   unbound one. A close does not unbind — the original program may legally
   probe a closed descriptor (the executor answers EBADF), and a repair
   must never be stricter than the program it repairs. *)
let repair_fds calls =
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
        Hashtbl.mem bound fd_var
      | S.Mkdir _ | S.Link _ | S.Unlink _ | S.Remove _ | S.Rename _ | S.Truncate _
      | S.Rmdir _ | S.Sync | S.Setxattr _ | S.Removexattr _ ->
        true)
    calls

let with_subset (report : R.t) subset =
  { report with R.crash_point = { report.R.crash_point with R.subset } }

let calls_key calls = String.concat "\n" (List.map S.to_string calls)
let subset_key subset = String.concat "," (List.map string_of_int subset)

let rec is_prefix pre l =
  match (pre, l) with
  | [], _ -> true
  | x :: pre', y :: l' -> x = y && is_prefix pre' l'
  | _ :: _, [] -> false

(* The file systems under test are deterministic, so the PM trace of a
   prefix workload is exactly the prefix of the full recording's trace up
   to the [calls_kept]-th Syscall_end marker. *)
let truncate_trace trace ~calls_kept =
  let t = Persist.Trace.create () in
  (try
     Persist.Trace.iter trace (fun op ->
         Persist.Trace.record t op;
         match op with
         | Persist.Trace.Syscall_end { idx; _ } when idx >= calls_kept - 1 -> raise Exit
         | _ -> ())
   with Exit -> ());
  t

(* Recordings kept for prefix matching; a dropped one just means the next
   matching probe re-records. Each recording holds a full device image, so
   the memo is deliberately small. *)
let max_memo_recordings = 8

(* Phase 1: ddmin over the workload. Each probe repairs the candidate,
   rebuilds its crash states and asks whether any report still carries the
   target fingerprint. The report for the winning candidate is re-derived
   from its own run, so its crash point (fence numbering, syscall indices,
   subset) is consistent with the shorter trace.

   Probes lean on two caches. The trace-replay cache: when the candidate is
   a syscall prefix of a memoized recording (ddmin probes contiguous
   chunks, so first-chunk and drop-a-tail-chunk candidates are prefixes —
   of the seeded full-workload recording to begin with), phase 1 is skipped
   and crash states are rebuilt from the truncated cached trace. And a
   per-minimization {!Chipmunk.Vcache}: candidates share most of their
   crash states, so verdicts memoized on one probe answer the next. *)
let minimize_workload ~opts driver (report : R.t) =
  let target = R.fingerprint report in
  let runs = ref 0 in
  let replay_hits = ref 0 in
  let vcache = Chipmunk.Vcache.create () in
  let matched : (string, R.t) Hashtbl.t = Hashtbl.create 16 in
  let recordings = ref [] (* newest first, capped *) in
  let record calls =
    incr runs;
    let r = Chipmunk.Harness.record ~opts driver calls in
    recordings := r :: List.filteri (fun i _ -> i < max_memo_recordings - 1) !recordings;
    r
  in
  ignore (record report.R.workload);
  let recording_for calls =
    match
      List.find_opt
        (fun (r : Chipmunk.Harness.recording) ->
          is_prefix calls r.Chipmunk.Harness.rec_calls)
        !recordings
    with
    | Some r ->
      incr replay_hits;
      if List.length calls = List.length r.Chipmunk.Harness.rec_calls then r
      else
        {
          r with
          Chipmunk.Harness.rec_calls = calls;
          rec_trace =
            truncate_trace r.Chipmunk.Harness.rec_trace ~calls_kept:(List.length calls);
          rec_outcomes = [];
        }
    | None -> record calls
  in
  let probe calls =
    let r = Chipmunk.Harness.replay_recorded ~opts ~vcache driver (recording_for calls) in
    match List.find_opt (fun r' -> R.fingerprint r' = target) r.Chipmunk.Harness.reports with
    | Some r' ->
      Hashtbl.replace matched (calls_key calls) r';
      true
    | None -> false
  in
  let test candidate =
    match repair_fds candidate with [] -> false | calls -> probe calls
  in
  let minimized, _ = Ddmin.run ~probe_cache_hits:replay_hits ~test report.R.workload in
  let calls = repair_fds minimized in
  let final =
    match Hashtbl.find_opt matched (calls_key calls) with
    | Some r' -> Some r'
    | None ->
      (* ddmin made no progress (every probe failed, e.g. mismatched opts):
         fall back to the input report rather than probing again. *)
      if calls = report.R.workload then Some report else None
  in
  (final, !runs, !replay_hits)

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
  | None, _, _ -> Error "the report does not reproduce under this driver and these options"
  | Some wl_min, harness_runs, replay_probe_hits ->
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
              replay_probe_hits;
            };
          culprits = culprits_of ~opts driver final;
        }

let rewrite ?opts driver report =
  match run ?opts driver report with Ok o -> o.report | Error _ -> report
