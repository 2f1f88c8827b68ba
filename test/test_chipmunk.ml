(* End-to-end tests of the Chipmunk pipeline on NOVA / NOVA-Fortis:
   soundness (no reports when the file system is correct) and per-bug
   regression (each injected bug from the paper's Table 1 is detected). *)

module Syscall = Vfs.Syscall

let w_creat = [ Syscall.Creat { path = "/foo"; fd_var = 0 }; Syscall.Close { fd_var = 0 } ]
let w_mkdir = [ Syscall.Mkdir { path = "/d" } ]

let w_write =
  [
    Syscall.Creat { path = "/foo"; fd_var = 0 };
    Syscall.Write { fd_var = 0; data = { seed = 1; len = 300 } };
    Syscall.Close { fd_var = 0 };
  ]

let w_link =
  [
    Syscall.Creat { path = "/foo"; fd_var = 0 };
    Syscall.Close { fd_var = 0 };
    Syscall.Link { src = "/foo"; dst = "/bar" };
  ]

let w_unlink =
  [
    Syscall.Creat { path = "/foo"; fd_var = 0 };
    Syscall.Close { fd_var = 0 };
    Syscall.Unlink { path = "/foo" };
  ]

let w_rename =
  [
    Syscall.Creat { path = "/foo"; fd_var = 0 };
    Syscall.Write { fd_var = 0; data = { seed = 2; len = 100 } };
    Syscall.Close { fd_var = 0 };
    Syscall.Rename { src = "/foo"; dst = "/bar" };
  ]

let w_rename_crossdir =
  [
    Syscall.Mkdir { path = "/d" };
    Syscall.Creat { path = "/foo"; fd_var = 0 };
    Syscall.Write { fd_var = 0; data = { seed = 7; len = 90 } };
    Syscall.Close { fd_var = 0 };
    Syscall.Rename { src = "/foo"; dst = "/d/bar" };
  ]

let w_rename_overwrite =
  [
    Syscall.Creat { path = "/a"; fd_var = 0 };
    Syscall.Write { fd_var = 0; data = { seed = 3; len = 80 } };
    Syscall.Close { fd_var = 0 };
    Syscall.Creat { path = "/b"; fd_var = 1 };
    Syscall.Write { fd_var = 1; data = { seed = 4; len = 60 } };
    Syscall.Close { fd_var = 1 };
    Syscall.Rename { src = "/a"; dst = "/b" };
  ]

let w_truncate =
  [
    Syscall.Creat { path = "/foo"; fd_var = 0 };
    Syscall.Write { fd_var = 0; data = { seed = 5; len = 400 } };
    Syscall.Truncate { path = "/foo"; size = 100 };
    Syscall.Close { fd_var = 0 };
  ]

let w_fallocate_after_churn =
  [
    Syscall.Creat { path = "/old"; fd_var = 0 };
    Syscall.Write { fd_var = 0; data = { seed = 6; len = 500 } };
    Syscall.Close { fd_var = 0 };
    Syscall.Unlink { path = "/old" };
    Syscall.Creat { path = "/foo"; fd_var = 1 };
    Syscall.Fallocate { fd_var = 1; off = 0; len = 400; keep_size = false };
    Syscall.Close { fd_var = 1 };
  ]

let w_many_creats =
  List.init 10 (fun i -> Syscall.Creat { path = Printf.sprintf "/f%d" i; fd_var = i })

let w_rmdir =
  [ Syscall.Mkdir { path = "/d" }; Syscall.Mkdir { path = "/d/e" }; Syscall.Rmdir { path = "/d/e" } ]

let all_clean_workloads =
  [
    w_creat; w_mkdir; w_write; w_link; w_unlink; w_rename; w_rename_crossdir;
    w_rename_overwrite; w_truncate; w_fallocate_after_churn; w_many_creats; w_rmdir;
  ]

let run ?(fortis = false) ?(bugs = Novafs.Bugs.none) ?opts workload =
  let config = Novafs.config ~fortis ~bugs () in
  let driver = Novafs.driver ~config () in
  Chipmunk.Harness.test_workload ?opts driver workload

let test_clean_no_reports () =
  List.iteri
    (fun i workload ->
      let r = run workload in
      (match r.Chipmunk.Harness.reports with
      | [] -> ()
      | rep :: _ ->
        Alcotest.failf "workload %d produced a false positive:\n%s" i
          (Format.asprintf "%a" Chipmunk.Report.pp rep));
      Alcotest.(check bool)
        (Printf.sprintf "workload %d checked some states" i)
        true
        (r.Chipmunk.Harness.stats.Chipmunk.Harness.crash_states > 0))
    all_clean_workloads

let test_clean_fortis_no_reports () =
  List.iteri
    (fun i workload ->
      let r = run ~fortis:true workload in
      match r.Chipmunk.Harness.reports with
      | [] -> ()
      | rep :: _ ->
        Alcotest.failf "fortis workload %d false positive:\n%s" i
          (Format.asprintf "%a" Chipmunk.Report.pp rep))
    all_clean_workloads

let expect_bug ~name ?(fortis = false) bugs workloads =
  let found =
    List.exists
      (fun w -> (run ~fortis ~bugs w).Chipmunk.Harness.reports <> [])
      workloads
  in
  if not found then Alcotest.failf "%s: no workload exposed the bug" name

let kind_found ~name ?(fortis = false) bugs workloads pred =
  let reports =
    List.concat_map (fun w -> (run ~fortis ~bugs w).Chipmunk.Harness.reports) workloads
  in
  if not (List.exists (fun r -> pred r.Chipmunk.Report.kind) reports) then
    Alcotest.failf "%s: expected report kind not found among %d report(s): %s" name
      (List.length reports)
      (String.concat "; " (List.map Chipmunk.Report.summary reports))

let test_bug1 () =
  kind_found ~name:"bug1 unmountable"
    { Novafs.Bugs.none with bug1_dentry_before_inode = true }
    [ w_creat; w_mkdir ]
    (function Chipmunk.Report.Unmountable _ -> true | _ -> false)

let test_bug2 () =
  kind_found ~name:"bug2 unreadable file"
    { Novafs.Bugs.none with bug2_unflushed_log_init = true }
    [ w_creat; w_mkdir ]
    (function Chipmunk.Report.Inaccessible _ -> true | _ -> false)

let test_bug3 () =
  kind_found ~name:"bug3 unmountable on log extension"
    { Novafs.Bugs.none with bug3_tail_before_page_init = true }
    [ w_many_creats; w_write ]
    (function Chipmunk.Report.Unmountable _ -> true | _ -> false)

let test_bug4 () =
  kind_found ~name:"bug4 rename loses file"
    { Novafs.Bugs.none with bug4_inplace_dentry_invalidate = true }
    [ w_rename ]
    (function Chipmunk.Report.Atomicity _ -> true | _ -> false)

let test_bug5 () =
  kind_found ~name:"bug5 old name persists"
    { Novafs.Bugs.none with bug5_tail_outside_journal = true }
    [ w_rename_crossdir ]
    (function Chipmunk.Report.Atomicity _ -> true | _ -> false)

let test_bug6 () =
  kind_found ~name:"bug6 link count early"
    { Novafs.Bugs.none with bug6_inplace_link_count = true }
    [ w_link ]
    (function Chipmunk.Report.Atomicity _ -> true | _ -> false)

let test_bug7 () =
  kind_found ~name:"bug7 truncate data loss"
    { Novafs.Bugs.none with bug7_eager_truncate_zero = true }
    [ w_truncate ]
    (function Chipmunk.Report.Atomicity _ -> true | _ -> false)

let test_bug8 () =
  expect_bug ~name:"bug8 fallocate stale data"
    { Novafs.Bugs.none with bug8_fallocate_publish_first = true }
    [ w_fallocate_after_churn ]

let test_bug9 () =
  kind_found ~name:"bug9 entry csum" ~fortis:true
    { Novafs.Bugs.none with bug9_nonatomic_entry_csum = true }
    [ w_unlink; w_truncate; w_rmdir ]
    (function
      | Chipmunk.Report.Inaccessible _ | Chipmunk.Report.Synchrony _
      | Chipmunk.Report.Atomicity _ ->
        true
      | _ -> false)

let test_bug10 () =
  kind_found ~name:"bug10 replica mismatch" ~fortis:true
    { Novafs.Bugs.none with bug10_replica_not_updated = true }
    [ w_link; w_unlink; w_rename ]
    (function Chipmunk.Report.Inaccessible _ -> true | _ -> false)

let test_bug11 () =
  kind_found ~name:"bug11 double free" ~fortis:true
    { Novafs.Bugs.none with bug11_replay_truncate_twice = true }
    [ w_truncate ]
    (function Chipmunk.Report.Recovery_fault _ -> true | _ -> false)

let test_bug12 () =
  kind_found ~name:"bug12 stale content csum" ~fortis:true
    { Novafs.Bugs.none with bug12_csum_after_commit = true }
    [ w_truncate ]
    (function Chipmunk.Report.Inaccessible _ -> true | _ -> false)

let test_cap_two_still_finds_rename_bug () =
  let opts = { Chipmunk.Harness.default_opts with cap = Some 2 } in
  let bugs = { Novafs.Bugs.none with bug4_inplace_dentry_invalidate = true } in
  let r = run ~bugs ~opts w_rename in
  Alcotest.(check bool) "found with cap 2" true (r.Chipmunk.Harness.reports <> [])

let test_stats_populated () =
  let r = run w_write in
  let s = r.Chipmunk.Harness.stats in
  let fences = ref 0 in
  Persist.Trace.iter r.Chipmunk.Harness.trace (function
    | Persist.Trace.Fence -> incr fences
    | _ -> ());
  Alcotest.(check bool) "fences seen" true (!fences > 0);
  Alcotest.(check bool) "crash points" true (s.Chipmunk.Harness.crash_points > 0);
  Alcotest.(check bool) "in-flight small" true (s.Chipmunk.Harness.max_in_flight <= 10)

let suite =
  [
    Alcotest.test_case "clean NOVA: no false positives" `Quick test_clean_no_reports;
    Alcotest.test_case "clean NOVA-Fortis: no false positives" `Quick test_clean_fortis_no_reports;
    Alcotest.test_case "bug 1: dangling dentry -> unmountable" `Quick test_bug1;
    Alcotest.test_case "bug 2: unflushed log init -> unreadable" `Quick test_bug2;
    Alcotest.test_case "bug 3: tail before page init -> unmountable" `Quick test_bug3;
    Alcotest.test_case "bug 4: in-place dentry invalidate -> file lost" `Quick test_bug4;
    Alcotest.test_case "bug 5: tail outside journal -> old name persists" `Quick test_bug5;
    Alcotest.test_case "bug 6: in-place link count" `Quick test_bug6;
    Alcotest.test_case "bug 7: eager truncate zeroing" `Quick test_bug7;
    Alcotest.test_case "bug 8: fallocate publishes stale pages" `Quick test_bug8;
    Alcotest.test_case "bug 9: non-atomic entry checksum (fortis)" `Quick test_bug9;
    Alcotest.test_case "bug 10: replica not updated (fortis)" `Quick test_bug10;
    Alcotest.test_case "bug 11: truncate replayed twice (fortis)" `Quick test_bug11;
    Alcotest.test_case "bug 12: checksum after commit (fortis)" `Quick test_bug12;
    Alcotest.test_case "cap=2 finds the rename bug" `Quick test_cap_two_still_finds_rename_bug;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
  ]

(* --- reproducer --- *)

let test_reproduce_bug () =
  let bugs = { Novafs.Bugs.none with bug4_inplace_dentry_invalidate = true } in
  let config = Novafs.config ~bugs () in
  let driver = Novafs.driver ~config () in
  let r = Chipmunk.Harness.test_workload driver w_rename in
  match r.Chipmunk.Harness.reports with
  | [] -> Alcotest.fail "no report to reproduce"
  | report :: _ ->
    Alcotest.(check bool) "report reproduces" true (Chipmunk.Reproduce.verify driver report);
    (match Chipmunk.Reproduce.crash_state driver report with
    | Error e -> Alcotest.failf "crash_state failed: %s" e
    | Ok cs ->
      (* The rebuilt image mounts (bug 4 is an atomicity bug, not an
         unmountable one) and shows the lost file. *)
      (match cs.Chipmunk.Reproduce.mount () with
      | Error e -> Alcotest.failf "mount of crash state failed: %s" e
      | Ok h ->
        let tree = Vfs.Walker.capture h in
        Alcotest.(check bool) "neither old nor new file present" true
          (Vfs.Walker.find tree "/foo" = None && Vfs.Walker.find tree "/bar" = None)))

let test_reproduce_clean_report_mismatch () =
  (* Reproducing against the wrong (fixed) file system must not confirm. *)
  let bugs = { Novafs.Bugs.none with bug4_inplace_dentry_invalidate = true } in
  let buggy = Novafs.driver ~config:(Novafs.config ~bugs ()) () in
  let fixed = Novafs.driver () in
  let r = Chipmunk.Harness.test_workload buggy w_rename in
  match r.Chipmunk.Harness.reports with
  | [] -> Alcotest.fail "no report"
  | report :: _ ->
    Alcotest.(check bool) "fixed FS does not reproduce" false
      (Chipmunk.Reproduce.verify fixed report)

let suite =
  suite
  @ [
      Alcotest.test_case "reports reproduce bit-identical crash states" `Quick test_reproduce_bug;
      Alcotest.test_case "reports do not reproduce on the fixed FS" `Quick
        test_reproduce_clean_report_mismatch;
    ]

(* --- Vinter-style read-set heuristic --- *)

let test_read_set_heuristic_tradeoff () =
  let states heur =
    List.fold_left
      (fun (found, states) (b : Catalog.t) ->
        let opts = { Chipmunk.Harness.default_opts with read_set_heuristic = heur } in
        let r = Chipmunk.Harness.test_workload ~opts (b.Catalog.driver ()) b.Catalog.trigger in
        ( (found + if r.Chipmunk.Harness.reports <> [] then 1 else 0),
          states + r.Chipmunk.Harness.stats.Chipmunk.Harness.crash_states ))
      (0, 0) Catalog.all
  in
  let found_off, states_off = states false in
  let found_on, states_on = states true in
  Alcotest.(check int) "full enumeration finds everything" 25 found_off;
  Alcotest.(check bool) "heuristic checks fewer states" true (states_on < states_off);
  (* Since the cold-base fix (hot subsets are checked both on the bare
     prefix and with the never-read units applied), the heuristic's
     state-space reduction loses no bug in the corpus. *)
  Alcotest.(check int)
    (Printf.sprintf "heuristic finds the whole corpus (found %d)" found_on)
    25 found_on

let test_read_set_heuristic_sound () =
  (* No false positives on a clean FS with the heuristic on. *)
  let opts = { Chipmunk.Harness.default_opts with read_set_heuristic = true } in
  List.iter
    (fun w ->
      match (run ~opts w).Chipmunk.Harness.reports with
      | [] -> ()
      | rep :: _ ->
        Alcotest.failf "heuristic false positive:\n%s"
          (Format.asprintf "%a" Chipmunk.Report.pp rep))
    all_clean_workloads

let suite =
  suite
  @ [
      Alcotest.test_case "read-set heuristic trade-off" `Quick test_read_set_heuristic_tradeoff;
      Alcotest.test_case "read-set heuristic soundness" `Quick test_read_set_heuristic_sound;
    ]
