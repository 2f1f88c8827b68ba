(* Tests for the unified Chipmunk.Run execution API: budget cap
   interactions, the campaign budget synonyms, the first-wins findings
   cap, and the fuzzer's determinism contract (the same seed twice reports
   identical findings and counts). *)

module Run = Chipmunk.Run

(* --- Run.budget / out_of_budget --- *)

let out b ?(execs = 0) ?(seconds = 0.0) ?(findings = 0) () =
  Run.out_of_budget b ~execs ~seconds ~findings

let test_budget_unlimited () =
  Alcotest.(check bool) "unlimited never stops" false
    (out Run.unlimited ~execs:1_000_000 ~seconds:1e9 ~findings:1000 ())

let test_budget_findings_cap_before_exec_cap () =
  (* Both caps set; the findings cap is reached first. *)
  let b = Run.budget ~max_execs:100 ~stop_after_findings:2 () in
  Alcotest.(check bool) "under both caps" false (out b ~execs:50 ~findings:1 ());
  Alcotest.(check bool) "findings cap fires at 2" true (out b ~execs:50 ~findings:2 ());
  Alcotest.(check bool) "exec cap alone also fires" true (out b ~execs:100 ~findings:0 ())

let test_budget_exec_cap_before_findings_cap () =
  (* Same caps, reached in the other order. *)
  let b = Run.budget ~max_execs:100 ~stop_after_findings:2 () in
  Alcotest.(check bool) "exec cap fires first" true (out b ~execs:100 ~findings:1 ());
  Alcotest.(check bool) "execs past the cap still out" true (out b ~execs:150 ~findings:0 ())

let test_budget_seconds_and_workloads () =
  (* A campaign counts one execution per workload, so [max_execs] is its
     workload cap. *)
  let b = Run.budget ~max_seconds:10.0 ~max_execs:5 () in
  Alcotest.(check bool) "under" false (out b ~seconds:9.9 ~execs:4 ());
  Alcotest.(check bool) "time cap" true (out b ~seconds:10.0 ~execs:0 ());
  Alcotest.(check bool) "workload cap" true (out b ~seconds:0.0 ~execs:5 ())

let test_exec_effective_jobs () =
  Alcotest.(check int) "explicit jobs" 3 (Run.effective_jobs (Run.exec ~jobs:3 ()));
  Alcotest.(check bool) "jobs=0 resolves to >= 1" true
    (Run.effective_jobs (Run.exec ~jobs:0 ()) >= 1);
  Alcotest.(check int) "default is one worker" 1 (Run.effective_jobs Run.default_exec)

let bug4_driver () =
  let bugs = { Novafs.Bugs.none with bug4_inplace_dentry_invalidate = true } in
  Novafs.driver ~config:(Novafs.config ~bugs ()) ()

(* --- Campaign on the Run records --- *)

let test_campaign_max_execs_synonym () =
  (* For a campaign, one workload is one execution: max_execs bounds
     workloads_run. *)
  let r =
    Chipmunk.Campaign.run
      ~budget:(Run.budget ~max_execs:7 ())
      (Novafs.driver ()) (Ace.seq2 Ace.Strong)
  in
  Alcotest.(check int) "max_execs bounds workloads" 7 r.Chipmunk.Campaign.workloads_run

(* --- The shared first-wins findings accumulator (Run.findings) --- *)

let nova_buggy () =
  match Catalog.buggy_driver "nova" with
  | Some mk -> mk ()
  | None -> Alcotest.fail "no buggy nova driver"

let campaign_keys ?stop_after_findings jobs =
  let r =
    Chipmunk.Campaign.run
      ~exec:(Run.exec ~jobs ())
      ~budget:(Run.budget ?stop_after_findings ())
      (nova_buggy ()) (Ace.seq1 Ace.Strong)
  in
  List.map
    (fun (e : Chipmunk.Campaign.event) ->
      (e.Chipmunk.Campaign.fingerprint, e.Chipmunk.Campaign.workload_index))
    r.Chipmunk.Campaign.events

let test_campaign_findings_cap () =
  (* The workload that reaches the cap finds more than one new fingerprint;
     only the first occurrence is kept, at any job count, and it is the
     first event of the uncapped run. *)
  let j1 = campaign_keys 1 in
  Alcotest.(check bool) "several findings" true (List.length j1 > 1);
  Alcotest.(check (list (pair string int))) "jobs=1 and jobs=2 agree" j1 (campaign_keys 2);
  List.iter
    (fun jobs ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "capped at one event at jobs=%d" jobs)
        [ List.hd j1 ]
        (campaign_keys ~stop_after_findings:1 jobs))
    [ 1; 2 ]

(* --- Fuzzer budget interactions --- *)

let test_fuzzer_exec_cap_exact () =
  (* 48 = 1.5 epochs: the second epoch must be truncated to the cap. *)
  let config =
    Fuzz.Fuzzer.config ~rng_seed:3 ~budget:(Run.budget ~max_execs:48 ()) ()
  in
  let r = Fuzz.Fuzzer.run ~config (Novafs.driver ()) in
  Alcotest.(check int) "exactly max_execs executions" 48 r.Fuzz.Fuzzer.execs

let test_fuzzer_findings_cap () =
  (* With every NOVA bug armed, the epoch that reaches the cap finds
     several new fingerprints; only the first is kept. *)
  let config =
    Fuzz.Fuzzer.config ~rng_seed:11
      ~budget:(Run.budget ~max_execs:2000 ~stop_after_findings:1 ())
      ()
  in
  let r = Fuzz.Fuzzer.run ~config (nova_buggy ()) in
  Alcotest.(check int) "stops at one finding" 1 (List.length r.Fuzz.Fuzzer.events);
  Alcotest.(check bool) "did not use the whole exec budget" true (r.Fuzz.Fuzzer.execs < 2000)

(* --- Same seed, same run --- *)

let fuzz_once () =
  let config =
    Fuzz.Fuzzer.config ~rng_seed:11
      ~budget:(Run.budget ~max_execs:256 ())
      ~exec:(Run.exec ~opts:{ Chipmunk.Harness.default_opts with cap = Some 2 } ())
      ()
  in
  Fuzz.Fuzzer.run ~config (bug4_driver ())

let event_key (e : Fuzz.Fuzzer.event) = (e.Fuzz.Fuzzer.fingerprint, e.Fuzz.Fuzzer.at_exec)

let test_fuzzer_same_seed_same_result () =
  let r1 = fuzz_once () in
  let r2 = fuzz_once () in
  Alcotest.(check bool) "found something" true (r1.Fuzz.Fuzzer.events <> []);
  Alcotest.(check (list (pair string int)))
    "identical fingerprints and at_exec attributions"
    (List.map event_key r1.Fuzz.Fuzzer.events)
    (List.map event_key r2.Fuzz.Fuzzer.events);
  Alcotest.(check int) "same exec count" r1.Fuzz.Fuzzer.execs r2.Fuzz.Fuzzer.execs;
  Alcotest.(check int) "same crash states" r1.Fuzz.Fuzzer.crash_states
    r2.Fuzz.Fuzzer.crash_states;
  Alcotest.(check int) "same coverage" r1.Fuzz.Fuzzer.coverage r2.Fuzz.Fuzzer.coverage;
  Alcotest.(check int) "same corpus" r1.Fuzz.Fuzzer.corpus_size r2.Fuzz.Fuzzer.corpus_size;
  Alcotest.(check int) "same dedup hits" r1.Fuzz.Fuzzer.dedup_hits r2.Fuzz.Fuzzer.dedup_hits;
  Alcotest.(check int) "same vcache hits" r1.Fuzz.Fuzzer.vcache_hits r2.Fuzz.Fuzzer.vcache_hits

let suite =
  [
    Alcotest.test_case "budget: unlimited never stops" `Quick test_budget_unlimited;
    Alcotest.test_case "budget: findings cap before exec cap" `Quick
      test_budget_findings_cap_before_exec_cap;
    Alcotest.test_case "budget: exec cap before findings cap" `Quick
      test_budget_exec_cap_before_findings_cap;
    Alcotest.test_case "budget: seconds and workload caps" `Quick
      test_budget_seconds_and_workloads;
    Alcotest.test_case "exec: effective_jobs resolution" `Quick test_exec_effective_jobs;
    Alcotest.test_case "campaign: max_execs is a workload synonym" `Quick
      test_campaign_max_execs_synonym;
    Alcotest.test_case "findings: cap keeps the first occurrence" `Quick
      test_campaign_findings_cap;
    Alcotest.test_case "fuzzer: exec cap exact mid-epoch" `Quick test_fuzzer_exec_cap_exact;
    Alcotest.test_case "fuzzer: findings cap stops the campaign" `Quick
      test_fuzzer_findings_cap;
    Alcotest.test_case "fuzzer: same seed, same result" `Quick
      test_fuzzer_same_seed_same_result;
  ]
