(* chipmunk-cli: command-line front end for the Chipmunk crash-consistency
   testing framework.

     chipmunk-cli list                        file systems and catalogued bugs
     chipmunk-cli ace --fs nova --suite seq1  run an ACE suite
     chipmunk-cli fuzz --fs winefs --execs N  run a fuzzing campaign
     chipmunk-cli bug --no 4                  reproduce one catalogued bug
     chipmunk-cli minimize report.json        shrink a finding to a reproducer
     chipmunk-cli reproduce bug.repro.json    rebuild and re-verify a reproducer

   The campaign-style subcommands (ace, fuzz, replay) parse one shared
   flag table — --cap, --no-vcache, --minimize — instead of
   keeping per-subcommand copies. The budget flags --max-seconds and
   --stop-after apply to the multi-workload runs, ace and fuzz. Only ace
   shards its work, so --jobs is an ace flag. *)

open Cmdliner

let fs_names = List.map fst Catalog.clean_drivers

let driver_of_name ~buggy name =
  if buggy then
    match Catalog.buggy_driver name with
    | Some mk -> Ok (mk ())
    | None -> Error (Printf.sprintf "unknown file system %S" name)
  else
    match List.assoc_opt name Catalog.clean_drivers with
    | Some mk -> Ok (mk ())
    | None -> Error (Printf.sprintf "unknown file system %S" name)

let fs_arg =
  let doc = "File system under test: " ^ String.concat ", " fs_names ^ "." in
  Arg.(value & opt string "nova" & info [ "fs" ] ~docv:"FS" ~doc)

let buggy_arg =
  let doc = "Arm the catalogued bugs of the chosen file system." in
  Arg.(value & flag & info [ "buggy" ] ~doc)

(* --- The shared flag table --- *)

type common = {
  cap : int;  (* 0 = subcommand default *)
  no_vcache : bool;
  minimize : bool;
}

let cap_arg =
  let doc =
    "Cap on in-flight writes replayed per crash state (0 = the subcommand default: \
     exhaustive for ace/replay/minimize, 2 for fuzz)."
  in
  Arg.(value & opt int 0 & info [ "cap" ] ~docv:"N" ~doc)

let no_vcache_arg =
  let doc =
    "Disable the campaign-wide verdict cache, the one crash-state cache: mount and check \
     every enumerated crash state, even one that repeats a state already checked at the same \
     crash point or in another workload. Findings are identical either way."
  in
  Arg.(value & flag & info [ "no-vcache" ] ~doc)

let max_seconds_arg =
  let doc = "Wall-clock budget in seconds (default: unlimited for ace, 30 for fuzz)." in
  Arg.(value & opt (some float) None & info [ "max-seconds"; "seconds" ] ~docv:"S" ~doc)

let stop_after_arg =
  let doc = "Stop after this many unique findings." in
  Arg.(value & opt (some int) None & info [ "stop-after" ] ~docv:"N" ~doc)

let minimize_flag =
  let doc = "Minimize each finding with the delta-debugging shrinker before printing." in
  Arg.(value & flag & info [ "minimize" ] ~doc)

let common_term =
  let mk cap no_vcache minimize = { cap; no_vcache; minimize } in
  Term.(const mk $ cap_arg $ no_vcache_arg $ minimize_flag)

(* The shared stats footer: the "cache:" line (hit counts and rates over
   the enumerated crash states, the oracle boundaries the cache's
   call-prefix trie served, and the crash points and usability probes its
   per-image memos served), a "cache tables:" line with how large the
   cache grew (absent without one), then a "truncated:" line when the
   subset enumeration's safety valve skipped crash states anywhere. *)
let footer ~crash_states ~dedup_hits ~vcache_hits ~oracle_reused ~points_reused ~probes_reused
    ~(sizes : Chipmunk.Vcache.sizes option) ~truncated_points ~states_skipped =
  let rate n = if crash_states = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int crash_states in
  Printf.printf
    "cache: dedup %d hits (%.1f%%), vcache %d hits (%.1f%%), oracle %d boundaries reused, %d \
     crash points reused, %d probes reused\n"
    dedup_hits (rate dedup_hits) vcache_hits (rate vcache_hits) oracle_reused points_reused
    probes_reused;
  Option.iter
    (fun (z : Chipmunk.Vcache.sizes) ->
      Printf.printf
        "cache tables: %d verdicts, %d phase ids, %d trie nodes, %d crash points, %d probed \
         images\n"
        z.Chipmunk.Vcache.verdict_entries z.Chipmunk.Vcache.phase_ids z.Chipmunk.Vcache.trie_nodes
        z.Chipmunk.Vcache.point_memo z.Chipmunk.Vcache.probe_memo)
    sizes;
  if truncated_points > 0 then
    Printf.printf
      "truncated: %d crash point(s) hit max_states_per_point; %d crash states were not checked\n"
      truncated_points states_skipped

(* Harness opts from the --cap flag; [default_cap] is the subcommand's cap
   when --cap is 0 (None = exhaustive). *)
let harness_opts ?default_cap cap =
  let cap = if cap <= 0 then default_cap else Some cap in
  { Chipmunk.Harness.default_opts with cap }

let list_cmd =
  let run () =
    Printf.printf "File systems:\n";
    List.iter
      (fun (name, mk) ->
        let d = mk () in
        Printf.printf "  %-12s %-6s atomic-data=%b device=%d bytes\n" name
          (match d.Vfs.Driver.consistency with
          | Vfs.Driver.Strong -> "strong"
          | Vfs.Driver.Weak -> "weak")
          d.Vfs.Driver.atomic_data d.Vfs.Driver.device_size)
      Catalog.clean_drivers;
    Printf.printf "\nCatalogued bugs (%d instances, %d unique):\n" (List.length Catalog.all)
      Catalog.unique_bugs;
    List.iter
      (fun (b : Catalog.t) ->
        Printf.printf "  %2d %-12s [%s] %s\n" b.Catalog.bug_no b.Catalog.fs
          (Catalog.bug_type_label b.Catalog.bug_type)
          b.Catalog.consequence)
      Catalog.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List file systems and catalogued bugs")
    Term.(const (fun () -> run (); 0) $ const ())

let suite_arg =
  let doc = "ACE suite: seq1, seq2 or seq3." in
  Arg.(value & opt string "seq1" & info [ "suite" ] ~docv:"SUITE" ~doc)

let max_workloads_arg =
  let doc = "Stop after this many workloads (0 = whole suite)." in
  Arg.(value & opt int 0 & info [ "max-workloads" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the campaign (0 = one per core). 1 runs in the calling domain; \
     findings are identical at any job count."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let ace_cmd =
  let run fs buggy suite max_workloads jobs (c : common) max_seconds stop_after =
    match driver_of_name ~buggy fs with
    | Error e ->
      prerr_endline e;
      1
    | Ok driver ->
      let mode =
        if driver.Vfs.Driver.consistency = Vfs.Driver.Weak then Ace.Fsync else Ace.Strong
      in
      let workloads =
        match suite with
        | "seq1" -> Ok (Ace.seq1 mode)
        | "seq2" -> Ok (Ace.seq2 mode)
        | "seq3" -> Ok (Ace.seq3_metadata mode)
        | s -> Error (Printf.sprintf "unknown suite %S" s)
      in
      (match workloads with
      | Error e ->
        prerr_endline e;
        1
      | Ok workloads ->
        let max_execs = if max_workloads = 0 then None else Some max_workloads in
        let opts = harness_opts c.cap in
        let exec = Chipmunk.Run.exec ~opts ~jobs ~use_vcache:(not c.no_vcache) () in
        let budget =
          Chipmunk.Run.budget ?max_execs ?max_seconds ?stop_after_findings:stop_after ()
        in
        let r = Chipmunk.Campaign.run ~exec ~budget driver workloads in
        Printf.printf
          "%s/%s: %d workloads, %d crash points, %d crash states, %.2fs, max in-flight %d\n"
          fs suite r.Chipmunk.Campaign.workloads_run r.Chipmunk.Campaign.crash_points
          r.Chipmunk.Campaign.crash_states r.Chipmunk.Campaign.elapsed
          r.Chipmunk.Campaign.max_in_flight;
        footer ~crash_states:r.Chipmunk.Campaign.crash_states
          ~dedup_hits:r.Chipmunk.Campaign.dedup_hits
          ~vcache_hits:r.Chipmunk.Campaign.vcache_hits
          ~oracle_reused:r.Chipmunk.Campaign.oracle_reused
          ~points_reused:r.Chipmunk.Campaign.points_reused
          ~probes_reused:r.Chipmunk.Campaign.probes_reused
          ~sizes:r.Chipmunk.Campaign.vcache_sizes
          ~truncated_points:r.Chipmunk.Campaign.truncated_points
          ~states_skipped:r.Chipmunk.Campaign.states_skipped;
        let events =
          if not c.minimize then r.Chipmunk.Campaign.events
          else
            List.map
              (fun (e : Chipmunk.Campaign.event) ->
                {
                  e with
                  Chipmunk.Campaign.report =
                    Shrink.Minimize.rewrite ~opts driver e.Chipmunk.Campaign.report;
                })
              r.Chipmunk.Campaign.events
        in
        if events = [] then print_endline "no bugs found"
        else begin
          Printf.printf "%d unique finding(s):\n" (List.length events);
          List.iter
            (fun (e : Chipmunk.Campaign.event) ->
              Printf.printf "\n--- found in %s after %.2fs ---\n%s" e.Chipmunk.Campaign.workload_name
                e.Chipmunk.Campaign.elapsed
                (Format.asprintf "%a" Chipmunk.Report.pp e.Chipmunk.Campaign.report))
            events
        end;
        0)
  in
  Cmd.v
    (Cmd.info "ace" ~doc:"Run an ACE workload suite under Chipmunk")
    Term.(
      const run $ fs_arg $ buggy_arg $ suite_arg $ max_workloads_arg $ jobs_arg $ common_term
      $ max_seconds_arg $ stop_after_arg)

let execs_arg =
  let doc = "Maximum fuzzer executions." in
  Arg.(value & opt int 500 & info [ "execs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Fuzzer RNG seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let save_arg =
  let doc =
    "Directory to save each finding's workload and report JSON into (created if missing)."
  in
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"DIR" ~doc)

let fuzz_cmd =
  let run fs buggy execs seed save (c : common) max_seconds stop_after =
    match driver_of_name ~buggy fs with
    | Error e ->
      prerr_endline e;
      1
    | Ok driver ->
      (* The paper runs the fuzzer with a replayed-writes cap of 2. *)
      let opts = harness_opts ~default_cap:2 c.cap in
      let exec = Chipmunk.Run.exec ~opts ~use_vcache:(not c.no_vcache) () in
      let budget =
        Chipmunk.Run.budget ~max_execs:execs
          ~max_seconds:(Option.value max_seconds ~default:30.0)
          ?stop_after_findings:stop_after ()
      in
      let config = Fuzz.Fuzzer.config ~rng_seed:seed ~budget ~exec () in
      let r = Fuzz.Fuzzer.run ~config driver in
      Printf.printf
        "%s: %d execs, %d crash points, %d crash states, coverage %d, corpus %d, %.2fs\n" fs
        r.Fuzz.Fuzzer.execs r.Fuzz.Fuzzer.crash_points r.Fuzz.Fuzzer.crash_states
        r.Fuzz.Fuzzer.coverage r.Fuzz.Fuzzer.corpus_size r.Fuzz.Fuzzer.elapsed;
      footer ~crash_states:r.Fuzz.Fuzzer.crash_states
        ~dedup_hits:r.Fuzz.Fuzzer.dedup_hits ~vcache_hits:r.Fuzz.Fuzzer.vcache_hits
        ~oracle_reused:r.Fuzz.Fuzzer.oracle_reused
        ~points_reused:r.Fuzz.Fuzzer.points_reused ~probes_reused:r.Fuzz.Fuzzer.probes_reused
        ~sizes:r.Fuzz.Fuzzer.vcache_sizes
        ~truncated_points:r.Fuzz.Fuzzer.truncated_points
        ~states_skipped:r.Fuzz.Fuzzer.states_skipped;
      Printf.printf "%d unique finding(s) in %d cluster(s)\n"
        (List.length r.Fuzz.Fuzzer.events)
        (List.length r.Fuzz.Fuzzer.clusters);
      (* One line per unique finding; every field here is deterministic
         per seed, which is what the CI fuzz smoke test diffs. *)
      List.iter
        (fun (e : Fuzz.Fuzzer.event) ->
          Printf.printf "finding %s at-exec %d\n" e.Fuzz.Fuzzer.fingerprint
            e.Fuzz.Fuzzer.at_exec)
        r.Fuzz.Fuzzer.events;
      if c.minimize then
        List.iteri
          (fun i (cl, o) ->
            match o with
            | None ->
              Printf.printf "  cluster %d (%d reports): %s [did not reproduce]\n" i
                cl.Fuzz.Triage.size
                (Chipmunk.Report.summary cl.Fuzz.Triage.representative)
            | Some (o : Shrink.Minimize.outcome) ->
              Printf.printf "  cluster %d (%d reports): %s [%d -> %d ops, %d -> %d writes]\n" i
                cl.Fuzz.Triage.size
                (Chipmunk.Report.summary cl.Fuzz.Triage.representative)
                o.Shrink.Minimize.stats.Shrink.Minimize.ops_before
                o.Shrink.Minimize.stats.Shrink.Minimize.ops_after
                o.Shrink.Minimize.stats.Shrink.Minimize.subset_before
                o.Shrink.Minimize.stats.Shrink.Minimize.subset_after)
          (Fuzz.Triage.minimize ~opts driver r.Fuzz.Fuzzer.clusters)
      else
        List.iteri
          (fun i (cl : Fuzz.Triage.cluster) ->
            Printf.printf "  cluster %d (%d reports): %s\n" i cl.Fuzz.Triage.size
              (Chipmunk.Report.summary cl.Fuzz.Triage.representative))
          r.Fuzz.Fuzzer.clusters;
      (match save with
      | None -> ()
      | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iteri
          (fun i (e : Fuzz.Fuzzer.event) ->
            let path = Filename.concat dir (Printf.sprintf "finding-%02d.workload" i) in
            Vfs.Workload_io.save ~path e.Fuzz.Fuzzer.workload;
            let rpath = Filename.concat dir (Printf.sprintf "finding-%02d.report.json" i) in
            Shrink.Artifact.save ~path:rpath
              (Shrink.Artifact.of_report e.Fuzz.Fuzzer.report);
            Printf.printf "saved %s and %s\n" path rpath)
          r.Fuzz.Fuzzer.events);
      0
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Run a gray-box fuzzing campaign under Chipmunk")
    Term.(
      const run $ fs_arg $ buggy_arg $ execs_arg $ seed_arg $ save_arg $ common_term
      $ max_seconds_arg $ stop_after_arg)

let file_arg =
  let doc = "Workload file (one syscall per line; see Vfs.Workload_io)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let replay_cmd =
  let run fs buggy (c : common) file =
    match driver_of_name ~buggy fs with
    | Error e ->
      prerr_endline e;
      1
    | Ok driver -> (
      match Vfs.Workload_io.load ~path:file with
      | Error e ->
        Printf.eprintf "cannot load %s: %s\n" file e;
        1
      | Ok workload ->
        let opts = harness_opts c.cap in
        let vcache = if c.no_vcache then None else Some (Chipmunk.Vcache.create ()) in
        let r = Chipmunk.Harness.test_workload ~opts ?vcache driver workload in
        let st = r.Chipmunk.Harness.stats in
        Printf.printf "%s: %d crash states checked\n" fs st.Chipmunk.Harness.crash_states;
        footer ~crash_states:st.Chipmunk.Harness.crash_states
          ~dedup_hits:st.Chipmunk.Harness.dedup_hits
          ~vcache_hits:st.Chipmunk.Harness.vcache_hits
          ~oracle_reused:st.Chipmunk.Harness.oracle_reused
          ~points_reused:st.Chipmunk.Harness.points_reused
          ~probes_reused:st.Chipmunk.Harness.probes_reused
          ~sizes:(Option.map Chipmunk.Vcache.sizes vcache)
          ~truncated_points:st.Chipmunk.Harness.truncated_points
          ~states_skipped:st.Chipmunk.Harness.states_skipped;
        (match r.Chipmunk.Harness.reports with
        | [] ->
          print_endline "crash consistent";
          0
        | reports ->
          let reports =
            if c.minimize then List.map (Shrink.Minimize.rewrite ~opts driver) reports
            else reports
          in
          List.iter (fun rep -> Format.printf "%a" Chipmunk.Report.pp rep) reports;
          0))
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a saved workload file under Chipmunk")
    Term.(const run $ fs_arg $ buggy_arg $ common_term $ file_arg)

let bug_no_arg =
  let doc = "Catalogued bug number (paper Table 1)." in
  Arg.(required & opt (some int) None & info [ "no" ] ~docv:"N" ~doc)

let bug_cmd =
  let run no =
    match List.find_opt (fun (b : Catalog.t) -> b.Catalog.bug_no = no) Catalog.all with
    | None ->
      Printf.eprintf "no catalogued bug %d\n" no;
      1
    | Some b ->
      Printf.printf "Bug %d (%s, %s): %s\naffected syscalls: %s\n\n" b.Catalog.bug_no b.Catalog.fs
        (Catalog.bug_type_label b.Catalog.bug_type)
        b.Catalog.consequence
        (String.concat ", " b.Catalog.affected);
      let r = Chipmunk.Harness.test_workload (b.Catalog.driver ()) b.Catalog.trigger in
      Printf.printf "trigger workload checked %d crash states\n"
        r.Chipmunk.Harness.stats.Chipmunk.Harness.crash_states;
      (match r.Chipmunk.Harness.reports with
      | [] ->
        print_endline "bug NOT reproduced";
        1
      | rep :: _ ->
        Format.printf "%a" Chipmunk.Report.pp rep;
        0)
  in
  Cmd.v (Cmd.info "bug" ~doc:"Reproduce one catalogued bug") Term.(const run $ bug_no_arg)

(* --- minimize / reproduce --- *)

let report_file_arg =
  let doc = "Report or reproducer JSON (a chipmunk-cli minimize artifact, a fuzz --save \
             report, or any Report.to_json document)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let fs_opt_arg =
  let doc = "File system driver to use (default: the one named in the report)." in
  Arg.(value & opt (some string) None & info [ "fs" ] ~docv:"FS" ~doc)

let bug_opt_arg =
  let doc =
    "Work on catalogued bug N: run its trigger workload under its single-bug driver and \
     take the first finding, instead of reading FILE."
  in
  Arg.(value & opt (some int) None & info [ "bug" ] ~docv:"N" ~doc)

let out_arg =
  let doc = "Where to write the reproducer artifact (default: FILE.min.json or \
             bug-N.repro.json)." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"PATH" ~doc)

let expect_shrink_arg =
  let doc = "Fail unless the minimized workload is strictly shorter than the input's." in
  Arg.(value & flag & info [ "expect-shrink" ] ~doc)

let catalog_bug no =
  match List.find_opt (fun (b : Catalog.t) -> b.Catalog.bug_no = no) Catalog.all with
  | None -> Error (Printf.sprintf "no catalogued bug %d" no)
  | Some b -> Ok b

(* The driver + report + default artifact path a minimize/reproduce
   invocation names: either a catalogued bug's trigger finding under its
   single-bug driver, or a report file paired with its own (or the
   requested) file system. *)
let resolve_source ~file ~bug ~fs ~buggy ~opts =
  match (bug, file) with
  | Some no, _ ->
    Result.bind (catalog_bug no) (fun (b : Catalog.t) ->
        let driver = b.Catalog.driver () in
        let r = Chipmunk.Harness.test_workload ~opts driver b.Catalog.trigger in
        match r.Chipmunk.Harness.reports with
        | [] -> Error (Printf.sprintf "bug %d did not reproduce from its trigger" no)
        | rep :: _ -> Ok (driver, rep, Printf.sprintf "bug-%02d.repro.json" no))
  | None, Some file ->
    Result.bind (Shrink.Artifact.load ~path:file) (fun (a : Shrink.Artifact.t) ->
        let report = a.Shrink.Artifact.report in
        let fs = Option.value fs ~default:report.Chipmunk.Report.fs in
        Result.map
          (fun driver -> (driver, report, file ^ ".min.json"))
          (driver_of_name ~buggy fs))
  | None, None -> Error "pass a report FILE or --bug N"

let minimize_cmd =
  let run file bug fs buggy cap out expect_shrink =
    let opts = harness_opts cap in
    match resolve_source ~file ~bug ~fs ~buggy ~opts with
    | Error e ->
      prerr_endline e;
      1
    | Ok (driver, report, default_out) -> (
      let out = Option.value out ~default:default_out in
      match Shrink.Minimize.run ~opts driver report with
      | Error e ->
        prerr_endline e;
        1
      | Ok o ->
        let s = o.Shrink.Minimize.stats in
        Printf.printf
          "workload: %d -> %d ops; replayed writes: %d -> %d (%d harness runs, %d rebuilds)\n"
          s.Shrink.Minimize.ops_before s.Shrink.Minimize.ops_after
          s.Shrink.Minimize.subset_before s.Shrink.Minimize.subset_after
          s.Shrink.Minimize.harness_runs s.Shrink.Minimize.check_runs;
        let fp_preserved =
          Chipmunk.Report.fingerprint o.Shrink.Minimize.report
          = Chipmunk.Report.fingerprint report
        in
        let reverifies = Chipmunk.Reproduce.verify ~opts driver o.Shrink.Minimize.report in
        Printf.printf "fingerprint preserved: %b; reproducer re-verifies: %b\n" fp_preserved
          reverifies;
        Shrink.Artifact.save ~path:out (Shrink.Artifact.of_outcome o);
        Printf.printf "wrote %s\n" out;
        if not (fp_preserved && reverifies) then 1
        else if expect_shrink && s.Shrink.Minimize.ops_after >= s.Shrink.Minimize.ops_before
        then begin
          prerr_endline "--expect-shrink: workload did not get strictly shorter";
          1
        end
        else 0)
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:"Shrink a finding to a minimal, replayable reproducer (delta debugging)")
    Term.(
      const run $ report_file_arg $ bug_opt_arg $ fs_opt_arg $ buggy_arg $ cap_arg
      $ out_arg $ expect_shrink_arg)

let reproduce_cmd =
  let run file bug fs buggy =
    match file with
    | None ->
      prerr_endline "pass a reproducer FILE";
      1
    | Some file -> (
      match Shrink.Artifact.load ~path:file with
      | Error e ->
        Printf.eprintf "cannot load %s: %s\n" file e;
        1
      | Ok a -> (
        let report = a.Shrink.Artifact.report in
        let driver =
          match bug with
          | Some no -> Result.map (fun (b : Catalog.t) -> b.Catalog.driver ()) (catalog_bug no)
          | None ->
            let fs = Option.value fs ~default:report.Chipmunk.Report.fs in
            driver_of_name ~buggy fs
        in
        match driver with
        | Error e ->
          prerr_endline e;
          1
        | Ok driver -> (
          match Chipmunk.Reproduce.matching_kind driver report with
          | Error e ->
            Printf.eprintf "cannot rebuild the crash state: %s\n" e;
            1
          | Ok found ->
            Format.printf "%a" Shrink.Artifact.pp a;
            if found <> None then begin
              print_endline "reproduced: crash state rebuilt and the finding re-verifies";
              0
            end
            else begin
              print_endline "NOT reproduced: crash state rebuilt but no check shows this finding";
              1
            end)))
  in
  Cmd.v
    (Cmd.info "reproduce" ~doc:"Rebuild a reproducer's crash state and re-verify the finding")
    Term.(const run $ report_file_arg $ bug_opt_arg $ fs_opt_arg $ buggy_arg)

let () =
  let info = Cmd.info "chipmunk-cli" ~doc:"Crash-consistency testing for PM file systems" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; ace_cmd; fuzz_cmd; bug_cmd; replay_cmd; minimize_cmd; reproduce_cmd ]))
