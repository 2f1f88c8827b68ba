(* Tests for the fuzzing front end: program generation/mutation, coverage
   plumbing, triage clustering, and end-to-end bug finding. *)

let test_generate_bounded () =
  let rng = Random.State.make [| 1 |] in
  for _ = 1 to 50 do
    let p = Fuzz.Prog.generate rng ~max_len:10 in
    Alcotest.(check bool) "nonempty" true (p <> []);
    Alcotest.(check bool) "bounded" true (List.length p <= 10)
  done

let test_generate_runs_on_oracle () =
  let rng = Random.State.make [| 2 |] in
  for _ = 1 to 50 do
    let p = Fuzz.Prog.generate rng ~max_len:15 in
    let h = Memfs.handle () in
    (* Generated programs may fail syscalls but must never raise. *)
    ignore (Vfs.Workload.run h p)
  done

let test_mutate_never_empty () =
  let rng = Random.State.make [| 3 |] in
  let p = ref (Fuzz.Prog.generate rng ~max_len:5) in
  for _ = 1 to 200 do
    p := Fuzz.Prog.mutate rng !p;
    Alcotest.(check bool) "nonempty" true (!p <> [])
  done

let test_cov_plumbing () =
  Cov.mark "outside";
  let v, hits =
    Cov.collect (fun () ->
        Cov.mark "b";
        Cov.mark "a";
        Cov.mark "b";
        (* Marks made on another domain during the collection are not this
           domain's. *)
        Domain.join (Domain.spawn (fun () -> Cov.mark "other-domain"));
        42)
  in
  Alcotest.(check int) "collect returns f's value" 42 v;
  Alcotest.(check (list string)) "distinct in-scope points, sorted" [ "a"; "b" ] hits;
  (* A raise inside [collect] propagates and ends that collection: marks
     made afterwards go to the enclosing scope (here the outer collect; at
     top level, nowhere), not to the aborted one. *)
  let (), outer =
    Cov.collect (fun () ->
        (match Cov.collect (fun () -> Cov.mark "inner"; failwith "boom") with
        | _ -> Alcotest.fail "collect swallowed the exception"
        | exception Failure _ -> ());
        Cov.mark "after-raise")
  in
  Alcotest.(check (list string)) "collection restored after a raise" [ "after-raise" ] outer

let mk_report summary_kind =
  {
    Chipmunk.Report.fs = "nova";
    workload = [ Vfs.Syscall.Mkdir { path = "/d" } ];
    crash_point =
      {
        Chipmunk.Report.fence_no = 1;
        during_syscall = Some 0;
        after_syscall = None;
        subset = [];
        in_flight = 1;
      };
    kind = summary_kind;
  }

let test_triage_groups_similar () =
  let a = mk_report (Chipmunk.Report.Unmountable "dentry foo references free inode 3") in
  let b = mk_report (Chipmunk.Report.Unmountable "dentry foo references free inode 7") in
  let c = mk_report (Chipmunk.Report.Unusable "creat probe in /d: ENOSPC") in
  let clusters = Fuzz.Triage.cluster [ a; b; c ] in
  Alcotest.(check int) "two clusters" 2 (List.length clusters);
  Alcotest.(check int) "similar pair grouped" 2
    (List.length (List.hd clusters).Fuzz.Triage.members)

let test_triage_similarity_bounds () =
  let a = mk_report (Chipmunk.Report.Unmountable "xyz") in
  Alcotest.(check bool) "self similarity 1" true (Fuzz.Triage.similarity a a >= 0.999);
  let b = mk_report (Chipmunk.Report.Unusable "completely different words entirely") in
  Alcotest.(check bool) "different below 1" true (Fuzz.Triage.similarity a b < 1.0)

(* The quadratic clustering [Triage.cluster] replaced, kept as the
   reference: re-tokenize both reports on every comparison. *)
let reference_similarity a b =
  let ta = Fuzz.Triage.tokens a and tb = Fuzz.Triage.tokens b in
  let inter = List.length (List.filter (fun t -> List.mem t tb) ta) in
  let union = List.length (List.sort_uniq String.compare (ta @ tb)) in
  if union = 0 then 1.0 else float_of_int inter /. float_of_int union

let reference_cluster ?(threshold = 0.6) reports =
  let clusters = ref [] in
  List.iter
    (fun r ->
      let rec place = function
        | [] -> clusters := !clusters @ [ ref (r, [ r ]) ]
        | c :: rest ->
          let rep, members = !c in
          if reference_similarity rep r >= threshold then c := (rep, r :: members)
          else place rest
      in
      place !clusters)
    reports;
  List.map (fun c -> let rep, members = !c in (rep, List.rev members)) !clusters
  |> List.sort (fun (_, a) (_, b) -> compare (List.length b) (List.length a))

let test_triage_matches_reference () =
  let config =
    Fuzz.Fuzzer.config ~rng_seed:1
      ~budget:(Chipmunk.Run.budget ~max_execs:512 ~max_seconds:60.0 ())
      ()
  in
  let r = Fuzz.Fuzzer.run ~config (Option.get (Catalog.buggy_driver "nova") ()) in
  (* Every report of the run, once: each one is a member of one cluster. *)
  let reports = List.concat_map (fun c -> c.Fuzz.Triage.members) r.Fuzz.Fuzzer.clusters in
  Alcotest.(check bool) "several clusters" true (List.length r.Fuzz.Fuzzer.clusters > 1);
  let fp = Chipmunk.Report.fingerprint in
  let shuffled =
    let rng = Random.State.make [| 1 |] in
    List.map (fun x -> (Random.State.bits rng, x)) reports |> List.sort compare |> List.map snd
  in
  List.iter
    (fun (what, reports) ->
      let got =
        List.map
          (fun c -> (fp c.Fuzz.Triage.representative, List.map fp c.Fuzz.Triage.members))
          (Fuzz.Triage.cluster reports)
      in
      let want =
        List.map (fun (rep, members) -> (fp rep, List.map fp members)) (reference_cluster reports)
      in
      Alcotest.(check (list (pair string (list string)))) what want got)
    [ ("in cluster order", reports); ("reversed", List.rev reports); ("shuffled", shuffled) ];
  let sample = List.filteri (fun i _ -> i < 40) shuffled in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Fuzz.Triage.similarity a b <> reference_similarity a b then
            Alcotest.failf "similarity differs on %s / %s" (fp a) (fp b))
        sample)
    sample

(* On the report streams of real fuzz runs (seeds 1 and 2), in run order:
   placing each distinct token key once must give exactly the clusters of
   the memo-free reference, at the default threshold and at the edges
   (1.0, where only identical token sets join, and above 1, where nothing
   does). The replica of the run is checked against the run itself. *)
let test_triage_memo_matches_reference () =
  List.iter
    (fun seed ->
      let _, reports, states = Helpers.fuzz_replica ~seed ~execs:512 in
      let run = Helpers.fuzz_run ~seed ~execs:512 in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: replica has the run's crash states" seed)
        run.Fuzz.Fuzzer.crash_states states;
      let shape = List.map (fun c -> (c.Fuzz.Triage.representative, c.Fuzz.Triage.members)) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: replica reports cluster as the run's" seed)
        true
        (shape (Fuzz.Triage.cluster reports) = shape run.Fuzz.Fuzzer.clusters);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %d reports in several clusters" seed (List.length reports))
        true
        (List.length run.Fuzz.Fuzzer.clusters > 1);
      List.iter
        (fun (threshold, reports) ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d, threshold %.1f: memoized == reference" seed threshold)
            true
            (shape (Fuzz.Triage.cluster ~threshold reports)
            = reference_cluster ~threshold reports))
        [
          (0.6, reports);
          (1.0, List.filteri (fun i _ -> i < 400) reports);
          (1.5, List.filteri (fun i _ -> i < 100) reports);
        ])
    [ 1; 2 ]

let test_fuzzer_finds_injected_bug () =
  let bugs = { Novafs.Bugs.none with bug4_inplace_dentry_invalidate = true } in
  let driver = Novafs.driver ~config:(Novafs.config ~bugs ()) () in
  let config =
    Fuzz.Fuzzer.config ~rng_seed:11
      ~budget:
        (Chipmunk.Run.budget ~max_execs:2000 ~max_seconds:30.0 ~stop_after_findings:1 ())
      ()
  in
  let r = Fuzz.Fuzzer.run ~config driver in
  Alcotest.(check bool) "found" true (r.Fuzz.Fuzzer.events <> []);
  Alcotest.(check bool) "collected coverage" true (r.Fuzz.Fuzzer.coverage > 0)

let test_fuzzer_clean_is_silent () =
  let config =
    Fuzz.Fuzzer.config ~rng_seed:12
      ~budget:(Chipmunk.Run.budget ~max_execs:150 ~max_seconds:20.0 ())
      ()
  in
  let r = Fuzz.Fuzzer.run ~config (Novafs.driver ()) in
  (match r.Fuzz.Fuzzer.events with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "false positive: %s\nworkload: %s"
      (Chipmunk.Report.summary e.Fuzz.Fuzzer.report)
      (Fuzz.Prog.to_string e.Fuzz.Fuzzer.workload));
  Alcotest.(check bool) "built a corpus" true (r.Fuzz.Fuzzer.corpus_size > 0)

let test_fuzzer_deterministic_given_seed () =
  let run () =
    let config =
      Fuzz.Fuzzer.config ~rng_seed:5
        ~budget:(Chipmunk.Run.budget ~max_execs:60 ~max_seconds:60.0 ())
        ()
    in
    let r = Fuzz.Fuzzer.run ~config (Novafs.driver ()) in
    (r.Fuzz.Fuzzer.execs, r.Fuzz.Fuzzer.crash_states)
  in
  Alcotest.(check (pair int int)) "reproducible" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "generation bounded and nonempty" `Quick test_generate_bounded;
    Alcotest.test_case "generated programs run safely" `Quick test_generate_runs_on_oracle;
    Alcotest.test_case "mutation never empties" `Quick test_mutate_never_empty;
    Alcotest.test_case "coverage plumbing" `Quick test_cov_plumbing;
    Alcotest.test_case "triage groups similar reports" `Quick test_triage_groups_similar;
    Alcotest.test_case "triage similarity bounds" `Quick test_triage_similarity_bounds;
    Alcotest.test_case "triage matches the quadratic reference" `Quick
      test_triage_matches_reference;
    Alcotest.test_case "triage: memoized placement == reference on fuzz runs" `Quick
      test_triage_memo_matches_reference;
    Alcotest.test_case "fuzzer finds injected bug" `Quick test_fuzzer_finds_injected_bug;
    Alcotest.test_case "fuzzer silent on clean FS" `Quick test_fuzzer_clean_is_silent;
    Alcotest.test_case "fuzzer deterministic per seed" `Quick test_fuzzer_deterministic_given_seed;
  ]
