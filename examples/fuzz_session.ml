(* Gray-box fuzzing session: the Syzkaller-style front end explores long,
   irregular workloads guided by coverage points in the file system code,
   then triages the flood of reports into clusters — the paper's
   "thorough, long-running testing" mode.

   Run with:  dune exec examples/fuzz_session.exe *)

let () =
  let fs = "winefs" in
  let driver = (Option.get (Catalog.buggy_driver fs)) () in
  Printf.printf "fuzzing %s with its catalogued bugs armed...\n%!" fs;
  let config =
    Fuzz.Fuzzer.config ~rng_seed:2024
      ~budget:(Chipmunk.Run.budget ~max_execs:1500 ~max_seconds:30.0 ())
      ()
  in
  let r = Fuzz.Fuzzer.run ~config driver in
  Printf.printf "executions:     %d\n" r.Fuzz.Fuzzer.execs;
  Printf.printf "crash states:   %d\n" r.Fuzz.Fuzzer.crash_states;
  Printf.printf "coverage:       %d points\n" r.Fuzz.Fuzzer.coverage;
  Printf.printf "seed corpus:    %d programs\n" r.Fuzz.Fuzzer.corpus_size;
  Printf.printf "unique reports: %d\n" (List.length r.Fuzz.Fuzzer.events);
  Printf.printf "elapsed:        %.2fs\n\n" r.Fuzz.Fuzzer.elapsed;

  (* The triage dashboard: lexical clustering folds near-duplicate reports
     (many crash states of the same root cause) into one line each. *)
  Printf.printf "triage dashboard (%d clusters):\n" (List.length r.Fuzz.Fuzzer.clusters);
  List.iteri
    (fun i (c : Fuzz.Triage.cluster) ->
      Printf.printf "  #%d  x%-4d %s\n" i c.Fuzz.Triage.size
        (Chipmunk.Report.summary c.Fuzz.Triage.representative))
    r.Fuzz.Fuzzer.clusters;

  (* Each finding comes with the workload that triggered it, ready to be
     replayed as a regression test. *)
  match r.Fuzz.Fuzzer.events with
  | [] -> print_endline "\nno findings (unexpected for a buggy file system)"
  | e :: _ ->
    Printf.printf "\nfirst finding (at execution %d, %.2fs in):\n" e.Fuzz.Fuzzer.at_exec
      e.Fuzz.Fuzzer.elapsed;
    Format.printf "%a" Chipmunk.Report.pp e.Fuzz.Fuzzer.report
