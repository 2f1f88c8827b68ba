(* Tests for the delta-debugging minimizer: the ddmin core, fd-var repair,
   end-to-end minimization of catalogued bugs (fingerprint preserved,
   reproducer re-verifies), the JSON round trips behind reproducer
   artifacts, and the error paths Reproduce must report instead of
   raising. *)

module R = Chipmunk.Report
module S = Vfs.Syscall

(* --- Ddmin --- *)

let test_ddmin_pair () =
  let items = List.init 10 Fun.id in
  let test l = List.mem 3 l && List.mem 7 l in
  let result, stats = Shrink.Ddmin.run ~test items in
  Alcotest.(check (list int)) "exactly the failure-inducing pair" [ 3; 7 ] result;
  Alcotest.(check bool) "probes counted" true (stats.Shrink.Ddmin.probes > 0)

let test_ddmin_singleton () =
  let result, _ = Shrink.Ddmin.run ~test:(List.mem 5) (List.init 20 Fun.id) in
  Alcotest.(check (list int)) "single culprit isolated" [ 5 ] result

let test_ddmin_empty_passes () =
  let result, stats = Shrink.Ddmin.run ~test:(fun _ -> true) (List.init 8 Fun.id) in
  Alcotest.(check (list int)) "empty input passes -> empty result" [] result;
  Alcotest.(check int) "one probe suffices" 1 stats.Shrink.Ddmin.probes

let test_ddmin_memoized () =
  let calls = ref 0 in
  let test l =
    incr calls;
    List.mem 2 l && List.mem 11 l
  in
  let _, stats = Shrink.Ddmin.run ~test (List.init 16 Fun.id) in
  Alcotest.(check int) "test called once per distinct candidate" stats.Shrink.Ddmin.probes !calls

let test_ddmin_one_minimal () =
  (* Result must be 1-minimal: removing any single element breaks the test. *)
  let test l = List.mem 1 l && List.mem 6 l && List.mem 13 l in
  let result, _ = Shrink.Ddmin.run ~test (List.init 15 Fun.id) in
  Alcotest.(check bool) "result still fails" true (test result);
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) result in
      Alcotest.(check bool) "dropping any element passes" false (test without))
    result

(* --- fd-var repair --- *)

(* The fuzzer's shape of finding: [Prog] writes to fd-var -1 when no
   descriptor is open, and no call binds -1. *)
let unbound_pwrite_workload =
  [
    S.Creat { path = "/dir"; fd_var = 0 };
    S.Pwrite { fd_var = -1; off = 376; data = { seed = 50641; len = 14 } };
  ]

let test_repair_drops_orphans () =
  let input =
    [
      S.Creat { path = "/f"; fd_var = 0 };
      S.Write { fd_var = 0; data = { seed = 1; len = 10 } };
      S.Mkdir { path = "/d" };
      S.Close { fd_var = 0 };
    ]
  in
  Alcotest.(check (list string))
    "calls on an unbound fd-var dropped, path calls kept" [ "mkdir /d" ]
    (List.map S.to_string (Shrink.Minimize.repair_fds ~input (List.tl input)));
  (* An fd-var the input never binds is not orphaned by dropping a call. *)
  let input = unbound_pwrite_workload in
  Alcotest.(check (list string))
    "uses of an fd-var the input never binds kept"
    (List.map S.to_string input)
    (List.map S.to_string (Shrink.Minimize.repair_fds ~input input));
  Alcotest.(check (list string))
    "... also once the creat is dropped"
    (List.map S.to_string (List.tl input))
    (List.map S.to_string (Shrink.Minimize.repair_fds ~input (List.tl input)))

let test_repair_keeps_closed_workloads () =
  let calls =
    [
      S.Creat { path = "/f"; fd_var = 0 };
      S.Write { fd_var = 0; data = { seed = 1; len = 10 } };
      S.Close { fd_var = 0 };
      (* A use after close is legal fuzzer output (EBADF at run time) and
         must survive repair. *)
      S.Fsync { fd_var = 0 };
    ]
  in
  Alcotest.(check int) "fd-closed workload unchanged" (List.length calls)
    (List.length (Shrink.Minimize.repair_fds ~input:calls calls))

(* --- End-to-end minimization over the catalog --- *)

let bug no =
  match List.find_opt (fun (b : Catalog.t) -> b.Catalog.bug_no = no) Catalog.all with
  | Some b -> b
  | None -> Alcotest.fail (Printf.sprintf "no catalogued bug %d" no)

let find_report (b : Catalog.t) driver =
  let r = Chipmunk.Harness.test_workload driver b.Catalog.trigger in
  match r.Chipmunk.Harness.reports with
  | rep :: _ -> rep
  | [] -> Alcotest.fail (Printf.sprintf "bug %d trigger found nothing" b.Catalog.bug_no)

let test_minimize_bug4 () =
  let b = bug 4 in
  let driver = b.Catalog.driver () in
  let rep = find_report b driver in
  match Shrink.Minimize.run driver rep with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let s = o.Shrink.Minimize.stats in
    Alcotest.(check string) "fingerprint preserved" (R.fingerprint rep)
      (R.fingerprint o.Shrink.Minimize.report);
    Alcotest.(check bool) "workload strictly shorter" true
      (s.Shrink.Minimize.ops_after < s.Shrink.Minimize.ops_before);
    Alcotest.(check bool) "harness re-runs spent" true (s.Shrink.Minimize.harness_runs > 0);
    Alcotest.(check bool) "minimized reproducer re-verifies" true
      (Chipmunk.Reproduce.verify driver o.Shrink.Minimize.report);
    Alcotest.(check int) "one culprit annotation per surviving write"
      (List.length o.Shrink.Minimize.report.R.crash_point.R.subset)
      (List.length o.Shrink.Minimize.culprits)

(* A finding whose crash point follows a call on an fd-var the workload
   never binds: minimization must keep that call, not drop it as an orphan
   and lose the crash point. *)
let test_minimize_unbound_fd_var () =
  let opts = { Chipmunk.Harness.default_opts with cap = Some 2 } in
  let driver =
    match Catalog.buggy_driver "nova" with
    | Some mk -> mk ()
    | None -> Alcotest.fail "no buggy nova driver"
  in
  let target = "nova/inaccessible/after:pwrite/stat: EIO" in
  let r = Chipmunk.Harness.test_workload ~opts driver unbound_pwrite_workload in
  match List.find_opt (fun rep -> R.fingerprint rep = target) r.Chipmunk.Harness.reports with
  | None -> Alcotest.fail ("no " ^ target ^ " report")
  | Some rep -> (
    match Shrink.Minimize.run ~opts driver rep with
    | Error e -> Alcotest.fail e
    | Ok o ->
      Alcotest.(check string) "fingerprint preserved" target
        (R.fingerprint o.Shrink.Minimize.report);
      Alcotest.(check bool) "minimized reproducer re-verifies" true
        (Chipmunk.Reproduce.verify ~opts driver o.Shrink.Minimize.report))

let test_minimize_rewrite_total () =
  (* rewrite on a report that cannot reproduce (clean driver) is identity. *)
  let b = bug 1 in
  let rep = find_report b (b.Catalog.driver ()) in
  let clean =
    match List.assoc_opt "nova" Catalog.clean_drivers with
    | Some mk -> mk ()
    | None -> Alcotest.fail "no clean nova driver"
  in
  let out = Shrink.Minimize.rewrite clean rep in
  Alcotest.(check string) "input returned unchanged" (R.fingerprint rep) (R.fingerprint out);
  Alcotest.(check int) "workload untouched" (List.length rep.R.workload)
    (List.length out.R.workload)

(* --- Report JSON round trip (satellite 1) --- *)

let test_report_roundtrip_catalog () =
  List.iter
    (fun (b : Catalog.t) ->
      let r = Chipmunk.Harness.test_workload (b.Catalog.driver ()) b.Catalog.trigger in
      List.iter
        (fun rep ->
          match R.of_json (R.to_json rep) with
          | Error e ->
            Alcotest.fail (Printf.sprintf "bug %d report does not parse back: %s" b.Catalog.bug_no e)
          | Ok rep' ->
            Alcotest.(check bool)
              (Printf.sprintf "bug %d (%s): of_json (to_json r) = r" b.Catalog.bug_no b.Catalog.fs)
              true (rep = rep'))
        r.Chipmunk.Harness.reports)
    Catalog.all

let test_report_of_json_errors () =
  let expect_error label text =
    match R.of_json text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": expected an error")
  in
  expect_error "not JSON" "nonsense";
  expect_error "wrong shape" "[1,2,3]";
  expect_error "missing fields" "{}";
  expect_error "bad workload line"
    {|{"fs":"nova","kind":"unmountable","crash_point":{"fence_no":1,"during_syscall":0,"after_syscall":null,"subset":[0],"in_flight":1},"workload":["frobnicate /x"],"evidence":"e"}|};
  expect_error "negative write length"
    {|{"fs":"nova","kind":"unmountable","crash_point":{"fence_no":1,"during_syscall":0,"after_syscall":null,"subset":[0],"in_flight":1},"workload":["creat /f 0","write 0 seed=1 len=-5"],"evidence":"e"}|}

(* --- Reproduce error paths (satellite 3) --- *)

let test_reproduce_error_paths () =
  let b = bug 1 in
  let driver = b.Catalog.driver () in
  let rep = find_report b driver in
  let expect_error label result =
    match result with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": expected Error")
  in
  let other_fs =
    match List.assoc_opt "pmfs" Catalog.clean_drivers with
    | Some mk -> mk ()
    | None -> Alcotest.fail "no pmfs driver"
  in
  expect_error "report from a different file system"
    (Chipmunk.Reproduce.crash_state other_fs rep);
  expect_error "crash point past the end of the trace"
    (Chipmunk.Reproduce.crash_state driver
       { rep with R.crash_point = { rep.R.crash_point with R.fence_no = 10_000_000 } });
  expect_error "subset naming unknown sequence numbers"
    (Chipmunk.Reproduce.crash_state driver
       { rep with R.crash_point = { rep.R.crash_point with R.subset = [ 999_999 ] } });
  expect_error "in_flight_at on a foreign report"
    (Chipmunk.Reproduce.in_flight_at other_fs rep)

(* --- Reproduce under every harness configuration --- *)

(* A crash state is rebuilt from a report plus the harness opts it was
   found under, through the harness's own record, crash-point walk and
   check. So under any configuration, every report the harness emits must
   re-verify, and so must the minimized first finding of each trigger. *)
let test_reproduce_under_every_opts () =
  let d = Chipmunk.Harness.default_opts in
  let configs =
    [
      ("default", d);
      ("read_set_heuristic", { d with read_set_heuristic = true });
      ("coalesce = false", { d with coalesce = false });
      ( "instruction-level, no coalescing, cap 2",
        { d with granularity = Persist.Pm.Instruction_level; coalesce = false; cap = Some 2 } );
    ]
  in
  List.iter
    (fun (name, opts) ->
      List.iter
        (fun (b : Catalog.t) ->
          let driver = b.Catalog.driver () in
          let r = Chipmunk.Harness.test_workload ~opts driver b.Catalog.trigger in
          List.iter
            (fun rep ->
              if not (Chipmunk.Reproduce.verify ~opts driver rep) then
                Alcotest.failf "%s, bug %d: report does not reproduce:\n%s" name
                  b.Catalog.bug_no (R.summary rep))
            r.Chipmunk.Harness.reports;
          match r.Chipmunk.Harness.reports with
          | [] -> ()
          | rep :: _ -> (
            match Shrink.Minimize.run ~opts driver rep with
            | Error e -> Alcotest.failf "%s, bug %d: minimize failed: %s" name b.Catalog.bug_no e
            | Ok o ->
              if not (Chipmunk.Reproduce.verify ~opts driver o.Shrink.Minimize.report) then
                Alcotest.failf "%s, bug %d: minimized report does not re-verify" name
                  b.Catalog.bug_no))
        Catalog.all)
    configs

(* A report must re-verify only when its crash state shows that finding:
   the same rebuilt state under another kind is a different finding (that
   the real reports re-verify is checked above). *)
let test_reproduce_forged_kind () =
  List.iter
    (fun (b : Catalog.t) ->
      let driver = b.Catalog.driver () in
      List.iter
        (fun rep ->
          let forged = { rep with R.kind = R.Unmountable "forged" } in
          if Chipmunk.Reproduce.verify driver forged then
            Alcotest.failf "bug %d: forged kind re-verifies:\n%s" b.Catalog.bug_no
              (R.summary rep))
        (Chipmunk.Harness.test_workload driver b.Catalog.trigger).Chipmunk.Harness.reports)
    Catalog.all

(* --- Minimizing a campaign's findings after the run --- *)

let catalog_suite () =
  Catalog.all
  |> List.map (fun (b : Catalog.t) ->
         (Printf.sprintf "bug-%02d-%s" b.Catalog.bug_no b.Catalog.fs, b.Catalog.trigger))
  |> List.to_seq

let test_campaign_minimize () =
  let driver =
    match Catalog.buggy_driver "nova" with
    | Some mk -> mk ()
    | None -> Alcotest.fail "no buggy nova driver"
  in
  let plain = Chipmunk.Campaign.run driver (Seq.take 5 (catalog_suite ())) in
  let minimized =
    List.map
      (fun (e : Chipmunk.Campaign.event) ->
        Shrink.Minimize.rewrite driver e.Chipmunk.Campaign.report)
      plain.Chipmunk.Campaign.events
  in
  Alcotest.(check bool) "found something" true (plain.Chipmunk.Campaign.events <> []);
  Alcotest.(check (list string))
    "same unique findings, in order"
    (List.map (fun (e : Chipmunk.Campaign.event) -> e.Chipmunk.Campaign.fingerprint)
       plain.Chipmunk.Campaign.events)
    (List.map R.fingerprint minimized);
  List.iter2
    (fun (p : Chipmunk.Campaign.event) m ->
      Alcotest.(check bool) "minimized workload no longer" true
        (List.length m.R.workload <= List.length p.Chipmunk.Campaign.report.R.workload))
    plain.Chipmunk.Campaign.events minimized

(* --- Artifacts --- *)

let test_artifact_roundtrip () =
  let b = bug 4 in
  let driver = b.Catalog.driver () in
  let rep = find_report b driver in
  match Shrink.Minimize.run driver rep with
  | Error e -> Alcotest.fail e
  | Ok o -> (
    let a = Shrink.Artifact.of_outcome o in
    match Shrink.Artifact.of_json (Shrink.Artifact.to_json a) with
    | Error e -> Alcotest.fail ("artifact does not parse back: " ^ e)
    | Ok a' ->
      Alcotest.(check bool) "report round-trips" true
        (a.Shrink.Artifact.report = a'.Shrink.Artifact.report);
      Alcotest.(check bool) "stats round-trip" true
        (a.Shrink.Artifact.stats = a'.Shrink.Artifact.stats);
      Alcotest.(check bool) "culprits round-trip" true
        (a.Shrink.Artifact.culprits = a'.Shrink.Artifact.culprits))

let test_artifact_bare_report () =
  let b = bug 1 in
  let rep = find_report b (b.Catalog.driver ()) in
  match Shrink.Artifact.of_json (R.to_json rep) with
  | Error e -> Alcotest.fail ("bare report rejected: " ^ e)
  | Ok a ->
    Alcotest.(check bool) "report loaded" true (a.Shrink.Artifact.report = rep);
    Alcotest.(check bool) "no shrink metadata" true (a.Shrink.Artifact.stats = None)

(* --- Triage.minimize --- *)

let test_triage_minimize () =
  let b = bug 4 in
  let driver = b.Catalog.driver () in
  let r = Chipmunk.Harness.test_workload driver b.Catalog.trigger in
  let clusters = Fuzz.Triage.cluster r.Chipmunk.Harness.reports in
  Alcotest.(check bool) "clusters formed" true (clusters <> []);
  let minimized = Fuzz.Triage.minimize driver clusters in
  Alcotest.(check int) "one result per cluster" (List.length clusters) (List.length minimized);
  List.iter
    (fun ((c : Fuzz.Triage.cluster), o) ->
      match o with
      | None -> Alcotest.fail "cluster representative did not reproduce"
      | Some (o : Shrink.Minimize.outcome) ->
        Alcotest.(check string) "representative replaced by the minimized report"
          (R.fingerprint o.Shrink.Minimize.report)
          (R.fingerprint c.Fuzz.Triage.representative);
        Alcotest.(check bool) "members retained" true (c.Fuzz.Triage.members <> []))
    minimized

let suite =
  [
    Alcotest.test_case "ddmin: isolates a pair" `Quick test_ddmin_pair;
    Alcotest.test_case "ddmin: isolates a singleton" `Quick test_ddmin_singleton;
    Alcotest.test_case "ddmin: empty result when everything passes" `Quick test_ddmin_empty_passes;
    Alcotest.test_case "ddmin: candidates memoized" `Quick test_ddmin_memoized;
    Alcotest.test_case "ddmin: result is 1-minimal" `Quick test_ddmin_one_minimal;
    Alcotest.test_case "repair: orphaned fd uses dropped" `Quick test_repair_drops_orphans;
    Alcotest.test_case "repair: fd-closed workloads unchanged" `Quick
      test_repair_keeps_closed_workloads;
    Alcotest.test_case "minimize: bug 4 shrinks and re-verifies" `Quick test_minimize_bug4;
    Alcotest.test_case "minimize: rewrite is total" `Quick test_minimize_rewrite_total;
    Alcotest.test_case "minimize: unbound fd-var use kept" `Quick test_minimize_unbound_fd_var;
    Alcotest.test_case "report json: catalog round trip" `Quick test_report_roundtrip_catalog;
    Alcotest.test_case "report json: malformed input is an error" `Quick
      test_report_of_json_errors;
    Alcotest.test_case "reproduce: error paths never raise" `Quick test_reproduce_error_paths;
    Alcotest.test_case "reproduce: every report under every opts" `Quick
      test_reproduce_under_every_opts;
    Alcotest.test_case "reproduce: forged kind does not verify" `Quick
      test_reproduce_forged_kind;
    Alcotest.test_case "campaign: ~minimize preserves findings" `Quick test_campaign_minimize;
    Alcotest.test_case "artifact: outcome round trip" `Quick test_artifact_roundtrip;
    Alcotest.test_case "artifact: bare report loads" `Quick test_artifact_bare_report;
    Alcotest.test_case "triage: representatives minimized" `Quick test_triage_minimize;
  ]
