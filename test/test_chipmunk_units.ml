(* Unit tests for the Chipmunk core pieces: coalescing, reports, the oracle
   and the campaign runner. *)

module Trace = Persist.Trace
module S = Vfs.Syscall

(* --- Coalesce --- *)

let store ~seq ~addr ~data ?(kind = Trace.Nt) ?(func = "memcpy_nt") () =
  { Trace.seq; addr; data; kind; func }

let add vec s ~syscall =
  Chipmunk.Coalesce.add ~coalesce:true vec s ~syscall

let test_coalesce_contiguous () =
  let vec = add [] (store ~seq:0 ~addr:100 ~data:"ab" ()) ~syscall:(Some 0) in
  let vec = add vec (store ~seq:1 ~addr:102 ~data:"cd" ()) ~syscall:(Some 0) in
  Alcotest.(check int) "fused" 1 (List.length vec);
  let u = List.hd vec in
  Alcotest.(check int) "bytes" 4 (Chipmunk.Coalesce.bytes u);
  Alcotest.(check (pair int int)) "span" (100, 104) (Chipmunk.Coalesce.span u)

let test_coalesce_not_across_syscalls () =
  let vec = add [] (store ~seq:0 ~addr:100 ~data:"ab" ()) ~syscall:(Some 0) in
  let vec = add vec (store ~seq:1 ~addr:102 ~data:"cd" ()) ~syscall:(Some 1) in
  Alcotest.(check int) "kept apart" 2 (List.length vec)

let test_coalesce_not_disjoint_small () =
  let vec = add [] (store ~seq:0 ~addr:100 ~data:"ab" ()) ~syscall:(Some 0) in
  let vec = add vec (store ~seq:1 ~addr:500 ~data:"cd" ()) ~syscall:(Some 0) in
  Alcotest.(check int) "disjoint small writes stay separate" 2 (List.length vec)

let test_coalesce_bulk_heuristic () =
  (* Two large non-adjacent nt stores from the same syscall (data pages of
     one file write) fuse under the bulk heuristic. *)
  let big = String.make 128 'x' in
  let vec = add [] (store ~seq:0 ~addr:1000 ~data:big ()) ~syscall:(Some 2) in
  let vec = add vec (store ~seq:1 ~addr:5000 ~data:big ()) ~syscall:(Some 2) in
  Alcotest.(check int) "bulk fused" 1 (List.length vec);
  Alcotest.(check int) "both parts" 2 (List.length (List.hd vec).Chipmunk.Coalesce.parts)

let test_coalesce_kind_mismatch () =
  let vec = add [] (store ~seq:0 ~addr:100 ~data:"ab" ()) ~syscall:(Some 0) in
  let vec =
    add vec (store ~seq:1 ~addr:102 ~data:"cd" ~kind:Trace.Flushed_line ~func:"flush_buffer" ())
      ~syscall:(Some 0)
  in
  Alcotest.(check int) "different kinds stay separate" 2 (List.length vec)

let test_coalesce_disabled () =
  let big = String.make 128 'x' in
  let vec =
    Chipmunk.Coalesce.add ~coalesce:false []
      (store ~seq:0 ~addr:1000 ~data:big ())
      ~syscall:(Some 0)
  in
  let vec =
    Chipmunk.Coalesce.add ~coalesce:false vec
      (store ~seq:1 ~addr:1128 ~data:big ())
      ~syscall:(Some 0)
  in
  Alcotest.(check int) "no fusion when disabled" 2 (List.length vec)

(* --- Report fingerprints --- *)

let mk_report ?(fs = "nova") ?(during = Some 1) kind =
  {
    Chipmunk.Report.fs;
    workload = [ S.Creat { path = "/x"; fd_var = 0 }; S.Rename { src = "/x"; dst = "/y" } ];
    crash_point =
      {
        Chipmunk.Report.fence_no = 3;
        during_syscall = during;
        after_syscall = Some 0;
        subset = [ 7 ];
        in_flight = 2;
      };
    kind;
  }

let test_fingerprint_stable_across_numbers () =
  let a = mk_report (Chipmunk.Report.Unmountable "bad tail 123") in
  let b = mk_report (Chipmunk.Report.Unmountable "bad tail 456") in
  Alcotest.(check string) "numbers normalized" (Chipmunk.Report.fingerprint a)
    (Chipmunk.Report.fingerprint b)

let test_fingerprint_distinguishes_kind () =
  let a = mk_report (Chipmunk.Report.Unmountable "x") in
  let b = mk_report (Chipmunk.Report.Unusable "x") in
  Alcotest.(check bool) "kinds differ" false
    (Chipmunk.Report.fingerprint a = Chipmunk.Report.fingerprint b)

let test_fingerprint_distinguishes_syscall () =
  let a = mk_report ~during:(Some 0) (Chipmunk.Report.Unmountable "x") in
  let b = mk_report ~during:(Some 1) (Chipmunk.Report.Unmountable "x") in
  Alcotest.(check bool) "creat vs rename context" false
    (Chipmunk.Report.fingerprint a = Chipmunk.Report.fingerprint b)

let test_report_render () =
  let r =
    mk_report (Chipmunk.Report.Atomicity { syscall = "rename /x /y"; diffs = [ "missing: /y" ] })
  in
  let text = Format.asprintf "%a" Chipmunk.Report.pp r in
  List.iter
    (fun needle ->
      if
        not
          (let n = String.length needle and m = String.length text in
           let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
           go 0)
      then Alcotest.failf "report misses %S:\n%s" needle text)
    [ "BUG REPORT"; "rename"; "missing: /y"; "fingerprint"; "workload" ]

(* --- Oracle --- *)

let test_oracle_trees () =
  let calls =
    [
      S.Mkdir { path = "/d" };
      S.Creat { path = "/d/f"; fd_var = 0 };
      S.Write { fd_var = 0; data = { seed = 3; len = 10 } };
      S.Close { fd_var = 0 };
    ]
  in
  let o = Chipmunk.Oracle.run calls in
  Alcotest.(check int) "call count" 4 (Chipmunk.Oracle.n_calls o);
  Alcotest.(check int) "initial tree is just root" 1 (List.length (Chipmunk.Oracle.pre o 0));
  Alcotest.(check int) "after mkdir" 2 (List.length (Chipmunk.Oracle.post o 0));
  Alcotest.(check int) "after creat" 3 (List.length (Chipmunk.Oracle.post o 1));
  Alcotest.(check bool) "post k = pre k+1" true
    (Vfs.Walker.equal (Chipmunk.Oracle.post o 0) (Chipmunk.Oracle.pre o 1));
  (match Vfs.Walker.find (Chipmunk.Oracle.final o) "/d/f" with
  | Some n -> Alcotest.(check int) "final size" 10 n.Vfs.Walker.size
  | None -> Alcotest.fail "file missing from final tree");
  Alcotest.(check int) "write ret" 10 (Chipmunk.Oracle.ret o 2)

let test_oracle_targets () =
  let calls =
    [
      S.Creat { path = "/f"; fd_var = 0 };
      S.Write { fd_var = 0; data = { seed = 1; len = 5 } };
      S.Rename { src = "/f"; dst = "/g" };
      S.Fsync { fd_var = 0 };
      S.Close { fd_var = 0 };
      S.Sync;
    ]
  in
  let o = Chipmunk.Oracle.run calls in
  Alcotest.(check (option string)) "write target" (Some "/f") (Chipmunk.Oracle.target o 1);
  Alcotest.(check (option string)) "fsync follows rename" (Some "/g")
    (Chipmunk.Oracle.target o 3);
  Alcotest.(check (option string)) "sync has no target" None (Chipmunk.Oracle.target o 5)

(* --- Campaign --- *)

let test_campaign_stop_after_findings () =
  let bugs = { Novafs.Bugs.none with bug4_inplace_dentry_invalidate = true } in
  let driver = Novafs.driver ~config:(Novafs.config ~bugs ()) () in
  let r =
    Chipmunk.Campaign.run
      ~budget:(Chipmunk.Run.budget ~stop_after_findings:1 ())
      driver (Ace.seq2 Ace.Strong)
  in
  Alcotest.(check int) "stopped at first" 1 (List.length r.Chipmunk.Campaign.events);
  Alcotest.(check bool) "did not run the whole suite" true
    (r.Chipmunk.Campaign.workloads_run < Ace.count (Ace.seq2 Ace.Strong))

let test_campaign_max_workloads () =
  let r =
    Chipmunk.Campaign.run
      ~budget:(Chipmunk.Run.budget ~max_execs:10 ())
      (Novafs.driver ()) (Ace.seq2 Ace.Strong)
  in
  Alcotest.(check int) "bounded" 10 r.Chipmunk.Campaign.workloads_run;
  Alcotest.(check (list Alcotest.reject)) "clean" [] (List.map (fun _ -> ()) r.Chipmunk.Campaign.events)

let test_campaign_dedups_across_workloads () =
  let bugs = { Novafs.Bugs.none with bug2_unflushed_log_init = true } in
  let driver = Novafs.driver ~config:(Novafs.config ~bugs ()) () in
  let r =
    Chipmunk.Campaign.run
      ~budget:(Chipmunk.Run.budget ~max_execs:30 ())
      driver (Ace.seq1 Ace.Strong)
  in
  let fps = List.map (fun e -> e.Chipmunk.Campaign.fingerprint) r.Chipmunk.Campaign.events in
  Alcotest.(check int) "fingerprints unique" (List.length fps)
    (List.length (List.sort_uniq compare fps))

(* --- Harness: one reusable image pair per domain --- *)

module Harness = Chipmunk.Harness

let nova_bug_triggers () =
  List.filter_map
    (fun (b : Catalog.t) -> if b.Catalog.fs = "NOVA" then Some b.Catalog.trigger else None)
    Catalog.all

let buggy_nova () = Option.get (Catalog.buggy_driver "nova") ()

(* Everything a workload's result says, minus the trace. *)
let summary (r : Harness.result) =
  ( List.map Chipmunk.Report.fingerprint r.Harness.reports,
    r.Harness.reports,
    r.Harness.stats,
    r.Harness.outcomes )

let in_fresh_domain f = Domain.join (Domain.spawn f)

let check_same what expected actual =
  Alcotest.(check bool) what true (summary expected = summary actual)

let test_pair_reuse () =
  let d = buggy_nova () in
  match nova_bug_triggers () with
  | a :: b :: _ ->
    let alone = in_fresh_domain (fun () -> Harness.test_workload d b) in
    Alcotest.(check bool) "b finds something" true (alone.Harness.reports <> []);
    ignore (Harness.test_workload d a);
    check_same "b after a = b alone" alone (Harness.test_workload d b);
    check_same "b again = b alone" alone (Harness.test_workload d b)
  | _ -> Alcotest.fail "need two NOVA triggers"

let test_pair_reuse_after_raise () =
  let d = buggy_nova () in
  let raising =
    {
      d with
      Vfs.Driver.mkfs =
        (fun pm ->
          let h = d.Vfs.Driver.mkfs pm in
          let mkdir ~path =
            ignore (h.Vfs.Handle.mkdir ~path);
            failwith "boom"
          in
          { h with Vfs.Handle.mkdir });
    }
  in
  let a =
    Vfs.Syscall.
      [
        Creat { path = "/f"; fd_var = 0 };
        Write { fd_var = 0; data = { seed = 3; len = 300 } };
        Mkdir { path = "/d" };
      ]
  in
  let b = List.hd (nova_bug_triggers ()) in
  let alone = in_fresh_domain (fun () -> Harness.test_workload d b) in
  (match Harness.test_workload raising a with
  | _ -> Alcotest.fail "the driver should have raised"
  | exception Failure _ -> ());
  check_same "b after a raising call = b alone" alone (Harness.test_workload d b)

let test_pair_nested () =
  let d = buggy_nova () in
  match nova_bug_triggers () with
  | a :: b :: _ ->
    let inner = ref None in
    let nesting =
      {
        d with
        Vfs.Driver.mkfs =
          (fun pm ->
            inner := Some (Harness.test_workload d a);
            d.Vfs.Driver.mkfs pm);
      }
    in
    let outer = Harness.test_workload nesting b in
    check_same "outer = unnested" (in_fresh_domain (fun () -> Harness.test_workload d b)) outer;
    check_same "inner = unnested"
      (in_fresh_domain (fun () -> Harness.test_workload d a))
      (Option.get !inner)
  | _ -> Alcotest.fail "need two NOVA triggers"

(* --- Harness: a failing recovery leaves no trace on the crash state --- *)

let pmfs_trigger () =
  List.find (fun (b : Catalog.t) -> b.Catalog.fs = "PMFS") Catalog.all

(* Buggy PMFS whose mount runs the real recovery, scribbles over the device
   through [Pm] (across cache lines, and twice on some), then fails. *)
let scribbling_pmfs fail =
  let d = Option.get (Catalog.buggy_driver "pmfs") () in
  let mount pm =
    ignore (d.Vfs.Driver.mount pm);
    Persist.Pm.memcpy_nt pm ~off:60 (String.make 100 '\xa5');
    Persist.Pm.store pm ~off:130 "garbage";
    Persist.Pm.memset_nt pm ~off:(d.Vfs.Driver.device_size - 70) ~len:70 '\xff';
    Persist.Pm.store_u64 pm ~off:0 (-1);
    fail ()
  in
  { d with Vfs.Driver.mount }

let test_failed_recovery_rolled_back () =
  let b = pmfs_trigger () in
  let workload = b.Catalog.trigger in
  let r = Harness.record (b.Catalog.driver ()) workload in
  let image = r.Harness.rec_base in
  Harness.walk ~replay:image r.Harness.rec_trace ignore;
  let before = Pmem.Image.snapshot image in
  let oracle = Chipmunk.Oracle.run workload in
  let phase = Chipmunk.Checker.After (List.length workload - 1) in
  List.iter
    (fun (what, fail, expected) ->
      Pmem.Image.checkpoint image;
      let kinds = Harness.mount_and_check (scribbling_pmfs fail) ~workload ~oracle ~phase image in
      Alcotest.(check bool) (what ^ ": reported") true (List.exists expected kinds);
      Alcotest.(check bool) (what ^ ": recovery wrote") false (Pmem.Image.equal image before);
      Pmem.Image.rollback image;
      Alcotest.(check bool) (what ^ ": bytes restored") true (Pmem.Image.equal image before);
      Alcotest.(check int) (what ^ ": digest = rehash") (Pmem.Image.rehash image)
        (Pmem.Image.digest image))
    [
      ( "raise",
        (fun () -> failwith "recovery blew up"),
        function Chipmunk.Report.Recovery_fault _ -> true | _ -> false );
      ( "Error",
        (fun () -> Error "rejected"),
        function Chipmunk.Report.Unmountable _ -> true | _ -> false );
    ]

(* The read-set heuristic probe-mounts each crash point's prefix state on
   the pooled replay image under a checkpoint; rolling it back must leave
   nothing for later crash points, or for the next workload on the same
   domain, to see. Every probe mount must therefore find the device exactly
   as a plain walk of the recording has it at that point. *)
let test_read_set_rollback_repeatable () =
  let b = pmfs_trigger () in
  let d = b.Catalog.driver () in
  let opts = { Harness.default_opts with read_set_heuristic = true } in
  let r = Harness.record d b.Catalog.trigger in
  let replay = r.Harness.rec_base in
  let prefixes = ref [] in
  Harness.walk ~replay r.Harness.rec_trace (fun p ->
      if p.Harness.in_flight <> [] then prefixes := Pmem.Image.digest replay :: !prefixes);
  let mounted = ref [] in
  let spying =
    {
      d with
      Vfs.Driver.mount =
        (fun pm ->
          mounted := Pmem.Image.digest (Persist.Pm.image pm) :: !mounted;
          d.Vfs.Driver.mount pm);
    }
  in
  let run () = Harness.test_workload ~opts spying b.Catalog.trigger in
  let first = run () in
  Alcotest.(check bool) "finds the bug" true (first.Harness.reports <> []);
  let rec subsequence xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs', y :: ys' -> subsequence (if x = y then xs' else xs) ys'
  in
  Alcotest.(check bool) "probe mounts see the walked prefix states" true
    (!prefixes <> [] && subsequence (List.rev !prefixes) (List.rev !mounted));
  check_same "second run = first run" first (run ());
  check_same "= a fresh domain" (in_fresh_domain run) first

(* --- Harness: subset truncation is counted --- *)

let test_truncation_counted () =
  let b = List.hd Catalog.all in
  let run opts =
    (Harness.test_workload ~opts (b.Catalog.driver ()) b.Catalog.trigger).Harness.stats
  in
  let cut = run { Harness.default_opts with max_states_per_point = 1 } in
  Alcotest.(check bool) "in-flight writes" true (cut.Harness.max_in_flight > 0);
  Alcotest.(check bool) "truncation counted" true (cut.Harness.truncated_points > 0);
  Alcotest.(check int) "default opts do not truncate" 0
    (run Harness.default_opts).Harness.truncated_points

let test_no_truncation_seq1 () =
  let r = Chipmunk.Campaign.run (buggy_nova ()) (Ace.seq1 Ace.Strong) in
  Alcotest.(check bool) "ran" true (r.Chipmunk.Campaign.crash_states > 0);
  Alcotest.(check int) "nothing truncated" 0 r.Chipmunk.Campaign.truncated_points

let suite =
  [
    Alcotest.test_case "coalesce contiguous stores" `Quick test_coalesce_contiguous;
    Alcotest.test_case "no coalescing across syscalls" `Quick test_coalesce_not_across_syscalls;
    Alcotest.test_case "disjoint small writes separate" `Quick test_coalesce_not_disjoint_small;
    Alcotest.test_case "bulk-data heuristic" `Quick test_coalesce_bulk_heuristic;
    Alcotest.test_case "kind mismatch separates" `Quick test_coalesce_kind_mismatch;
    Alcotest.test_case "coalescing can be disabled" `Quick test_coalesce_disabled;
    Alcotest.test_case "fingerprint normalizes numbers" `Quick test_fingerprint_stable_across_numbers;
    Alcotest.test_case "fingerprint keyed by kind" `Quick test_fingerprint_distinguishes_kind;
    Alcotest.test_case "fingerprint keyed by syscall" `Quick test_fingerprint_distinguishes_syscall;
    Alcotest.test_case "report rendering" `Quick test_report_render;
    Alcotest.test_case "oracle tree snapshots" `Quick test_oracle_trees;
    Alcotest.test_case "oracle fd targets follow renames" `Quick test_oracle_targets;
    Alcotest.test_case "campaign stops after findings" `Quick test_campaign_stop_after_findings;
    Alcotest.test_case "campaign workload bound" `Quick test_campaign_max_workloads;
    Alcotest.test_case "campaign dedup" `Quick test_campaign_dedups_across_workloads;
    Alcotest.test_case "image pair: reuse is invisible" `Quick test_pair_reuse;
    Alcotest.test_case "image pair: reuse after a raise" `Quick test_pair_reuse_after_raise;
    Alcotest.test_case "image pair: nested call" `Quick test_pair_nested;
    Alcotest.test_case "failed recovery rolled back" `Quick test_failed_recovery_rolled_back;
    Alcotest.test_case "read-set probe rolled back" `Quick test_read_set_rollback_repeatable;
    Alcotest.test_case "truncated crash points counted" `Quick test_truncation_counted;
    Alcotest.test_case "default seq-1 never truncates" `Quick test_no_truncation_seq1;
  ]
