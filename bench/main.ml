(* Benchmark and experiment harness: regenerates every table and figure of
   the paper's evaluation (see DESIGN.md's experiment index E1-E8 and
   EXPERIMENTS.md for paper-vs-measured numbers).

     table1       Table 1  - the bug corpus, with detection results
     table2       Table 2  - observations and the bugs behind them
     figure3      Figure 3 - cumulative time to find bugs, ACE vs fuzzer
     suite-stats  sect 4.3 - suite sizes, crash-state counts per FS
     cap-sweep    Obs. 7   - minimal replayed-writes cap per bug
     inflight     sect 3.2 - in-flight write statistics per syscall
     perf         Obs. 2 + sect 6.2 - Bechamel microbenchmarks
     parallel     cache and job-count transparency - findings and cache
                  counts per config (rewrites BENCH_parallel.json)
     shrink       minimizer  - delta-debugging shrink factors over the bug
                  corpus (rewrites BENCH_shrink.json)
     ablation     DESIGN.md - coalescing design choice

   Running with no argument executes everything. Campaign-level experiments
   shard workloads across one domain per core ([Pool.default_jobs]). *)

let line = String.make 78 '-'
let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* Worker domains for the campaign-level experiments. *)
let jobs = Chipmunk.Pool.default_jobs ()

(* ------------------------------------------------------------------ *)
(* E1: Table 1                                                         *)

let detect (bug : Catalog.t) =
  let driver = bug.Catalog.driver () in
  let r = Chipmunk.Harness.test_workload driver bug.Catalog.trigger in
  r.Chipmunk.Harness.reports

let table1 () =
  header "Table 1: bugs found by Chipmunk, their consequences and affected syscalls";
  Printf.printf "%-4s %-12s %-6s %-9s %-46s %s\n" "Bug" "FS" "Type" "Detected" "Consequence"
    "Affected syscalls";
  let found = ref 0 in
  List.iter
    (fun (b : Catalog.t) ->
      let reports = detect b in
      if reports <> [] then incr found;
      Printf.printf "%-4d %-12s %-6s %-9s %-46s %s\n" b.Catalog.bug_no b.Catalog.fs
        (Catalog.bug_type_label b.Catalog.bug_type)
        (if reports <> [] then "yes" else "NO")
        b.Catalog.consequence
        (String.concat ", " b.Catalog.affected))
    Catalog.all;
  Printf.printf
    "\n%d/%d bug instances detected (%d unique bugs; paper: 23 unique bugs, 25 instances)\n"
    !found (List.length Catalog.all) Catalog.unique_bugs;
  let logic =
    List.length (List.filter (fun (b : Catalog.t) -> b.Catalog.bug_type = Catalog.Logic) Catalog.all)
  in
  Printf.printf "logic vs PM: %d logic-type instances, %d PM-type (paper: 19/23 unique are logic)\n"
    logic (List.length Catalog.all - logic)

(* ------------------------------------------------------------------ *)
(* E2: Table 2                                                         *)

let table2 () =
  header "Table 2: observations and the bugs associated with them";
  let obs =
    [
      Catalog.Obs_logic_not_pm; Catalog.Obs_in_place; Catalog.Obs_rebuild; Catalog.Obs_resilience;
      Catalog.Obs_mid_syscall; Catalog.Obs_short_workloads; Catalog.Obs_few_writes;
    ]
  in
  List.iter
    (fun o ->
      let bugs =
        List.filter_map
          (fun (b : Catalog.t) ->
            if List.mem o b.Catalog.observations then Some b.Catalog.bug_no else None)
          Catalog.all
        |> List.sort_uniq compare |> List.map string_of_int
      in
      Printf.printf "%-55s  bugs: %s\n" (Catalog.observation_label o) (String.concat ", " bugs))
    obs

(* ------------------------------------------------------------------ *)
(* E3: Figure 3                                                        *)

let ace_suite () =
  Seq.append (Ace.seq1 Ace.Strong)
    (Seq.append (Ace.seq2 Ace.Strong)
       (* A bounded slice of seq-3, as the paper bounds seq-3 to metadata
          workloads to keep testing tractable. *)
       (Seq.take 2000 (Ace.seq3_metadata Ace.Strong)))

let figure3 () =
  header "Figure 3: cumulative CPU time to find each bug, ACE vs fuzzer";
  let opts = { Chipmunk.Harness.default_opts with cap = Some 2 } in
  let results =
    List.map
      (fun (b : Catalog.t) ->
        let ace_time =
          let r =
            Chipmunk.Campaign.run
              ~exec:(Chipmunk.Run.exec ~opts ~jobs ())
              ~budget:(Chipmunk.Run.budget ~stop_after_findings:1 ~max_seconds:30.0 ())
              (b.Catalog.driver ()) (ace_suite ())
          in
          match r.Chipmunk.Campaign.events with
          | e :: _ -> Some e.Chipmunk.Campaign.elapsed
          | [] -> None
        in
        let fuzz_time =
          let config =
            Fuzz.Fuzzer.config
              ~rng_seed:(7 + b.Catalog.bug_no)
              ~budget:
                (Chipmunk.Run.budget ~max_execs:50_000 ~max_seconds:20.0
                   ~stop_after_findings:1 ())
              ()
          in
          let r = Fuzz.Fuzzer.run ~config (b.Catalog.driver ()) in
          match r.Fuzz.Fuzzer.events with
          | e :: _ -> Some e.Fuzz.Fuzzer.elapsed
          | [] -> None
        in
        (b, ace_time, fuzz_time))
      Catalog.all
  in
  Printf.printf "%-4s %-12s %14s %14s\n" "Bug" "FS" "ACE (s)" "Fuzzer (s)";
  List.iter
    (fun ((b : Catalog.t), a, f) ->
      let show = function None -> "not found" | Some s -> Printf.sprintf "%.3f" s in
      Printf.printf "%-4d %-12s %14s %14s\n" b.Catalog.bug_no b.Catalog.fs (show a) (show f))
    results;
  let cumulative times =
    let found = List.sort compare (List.filter_map Fun.id times) in
    List.rev (fst (List.fold_left (fun (acc, tot) t -> ((tot +. t) :: acc, tot +. t)) ([], 0.0) found))
  in
  let ace_series = cumulative (List.map (fun (_, a, _) -> a) results) in
  let fuzz_series = cumulative (List.map (fun (_, _, f) -> f) results) in
  Printf.printf "\nCumulative CPU time to find the n-th bug (seconds):\n";
  Printf.printf "%-6s %14s %14s\n" "n" "ACE" "Fuzzer";
  let n = max (List.length ace_series) (List.length fuzz_series) in
  for i = 0 to n - 1 do
    let get l = match List.nth_opt l i with None -> "-" | Some v -> Printf.sprintf "%.3f" v in
    Printf.printf "%-6d %14s %14s\n" (i + 1) (get ace_series) (get fuzz_series)
  done;
  Printf.printf
    "\nACE found %d, fuzzer found %d of %d instances\n\
     (paper: ACE finds 19/23 quickly; the fuzzer needs ~6-20x more CPU time overall but\n\
     reaches the remaining bugs whose patterns ACE's enumeration omits).\n"
    (List.length ace_series) (List.length fuzz_series) (List.length Catalog.all)

(* ------------------------------------------------------------------ *)
(* E4: suite statistics                                                *)

let suite_stats () =
  header "Section 4.3: suite sizes and crash-state counts per file system (all bugs fixed)";
  let seq1_n = Ace.count (Ace.seq1 Ace.Strong) in
  let seq2_n = Ace.count (Ace.seq2 Ace.Strong) in
  let seq3_n =
    let m = List.length Ace.metadata_ops in
    m * m * m
  in
  Printf.printf "suite sizes: seq-1 %d, seq-2 %d, seq-3 metadata %d (paper: 56 / 3136 / 50650)\n\n"
    seq1_n seq2_n seq3_n;
  Printf.printf "%-12s %10s %12s %12s %10s %10s %8s\n" "FS" "workloads" "crash pts"
    "crash states" "dedup" "false pos" "time(s)";
  (* One worker domain per file system: the seven sweeps are independent, so
     fanning the drivers out (rather than sharding workloads within one
     driver) parallelizes across the whole table. Pool.map returns results
     in submission order, so rows print deterministically, driver by
     driver, whatever order the domains finished in. *)
  let results =
    Chipmunk.Pool.map
      ~jobs:(min jobs (List.length Catalog.clean_drivers))
      (fun (name, mk) ->
        let suite =
          if name = "ext4-dax" || name = "xfs-dax" then
            Seq.append (Ace.seq1 Ace.Fsync) (Seq.take 1500 (Ace.seq2 Ace.Fsync))
          else Seq.append (Ace.seq1 Ace.Strong) (Ace.seq2 Ace.Strong)
        in
        Chipmunk.Campaign.run (mk ()) suite)
      (List.to_seq Catalog.clean_drivers)
  in
  let rows =
    List.map
      (fun (_, (name, _), r) ->
        Printf.printf "%-12s %10d %12d %12d %10d %10d %8.1f\n" name
          r.Chipmunk.Campaign.workloads_run r.Chipmunk.Campaign.crash_points
          r.Chipmunk.Campaign.crash_states r.Chipmunk.Campaign.dedup_hits
          (List.length r.Chipmunk.Campaign.events)
          r.Chipmunk.Campaign.elapsed;
        (name, r.Chipmunk.Campaign.crash_states))
      results
  in
  let strong = List.filter (fun (n, _) -> n <> "ext4-dax" && n <> "xfs-dax") rows in
  let mx = List.fold_left (fun a (_, s) -> max a s) 0 strong in
  let mn = List.fold_left (fun a (_, s) -> min a s) max_int strong in
  Printf.printf
    "\ncrash-state variation across strong-consistency FSes: %.1fx\n\
     (paper: up to 3x, PMFS checking the most and WineFS the fewest)\n"
    (float_of_int mx /. float_of_int (max 1 mn))

(* ------------------------------------------------------------------ *)
(* E5: cap sweep (Observation 7)                                       *)

let cap_sweep () =
  header "Observation 7: smallest replayed-subset cap that exposes each bug";
  Printf.printf "%-4s %-12s %10s %14s %14s\n" "Bug" "FS" "min cap" "states@cap2" "states@nocap";
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (b : Catalog.t) ->
      let find cap =
        let opts = { Chipmunk.Harness.default_opts with cap } in
        let r = Chipmunk.Harness.test_workload ~opts (b.Catalog.driver ()) b.Catalog.trigger in
        (r.Chipmunk.Harness.reports <> [], r.Chipmunk.Harness.stats.Chipmunk.Harness.crash_states)
      in
      let rec min_cap c =
        if c > 5 then None else if fst (find (Some c)) then Some c else min_cap (c + 1)
      in
      let mc = min_cap 0 in
      let _, states2 = find (Some 2) in
      let _, states_all = find None in
      (match mc with
      | Some c -> Hashtbl.replace counts c (1 + Option.value (Hashtbl.find_opt counts c) ~default:0)
      | None -> ());
      Printf.printf "%-4d %-12s %10s %14d %14d\n" b.Catalog.bug_no b.Catalog.fs
        (match mc with None -> ">5" | Some c -> string_of_int c)
        states2 states_all)
    Catalog.all;
  Printf.printf "\nbugs by minimal cap:";
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) counts []
  |> List.sort compare
  |> List.iter (fun (c, n) -> Printf.printf " cap=%d: %d" c n);
  Printf.printf
    "\n(paper Observation 7: 10 of 11 mid-syscall bugs need one replayed write, one\n\
     needs two; a cap of two suffices for the whole corpus)\n"

(* ------------------------------------------------------------------ *)
(* E7: in-flight write statistics                                      *)

let inflight () =
  header "Section 3.2: in-flight (coalesced) writes per fence epoch, by syscall";
  List.iter
    (fun (name, mk) ->
      if name <> "ext4-dax" && name <> "xfs-dax" then begin
        let driver = mk () in
        let tbl : (string, int list) Hashtbl.t = Hashtbl.create 16 in
        Seq.iter
          (fun (_, w) ->
            let r = Chipmunk.Harness.test_workload driver w in
            List.iter
              (fun (k, (s : Persist.Analysis.summary)) ->
                let prev = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
                Hashtbl.replace tbl k (s.Persist.Analysis.max :: prev))
              (Persist.Analysis.per_syscall_summary r.Chipmunk.Harness.trace))
          (Ace.seq1 Ace.Strong);
        let rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
        Printf.printf "%s:\n" name;
        let all_meta = ref [] in
        List.iter
          (fun (k, sizes) ->
            let s = Persist.Analysis.summarize sizes in
            if k <> "write" && k <> "pwrite" && k <> "fallocate" then all_meta := sizes @ !all_meta;
            Printf.printf "  %-10s epochs=%4d  mean=%.1f  max=%d\n" k s.Persist.Analysis.count
              s.Persist.Analysis.mean s.Persist.Analysis.max)
          rows;
        let m = Persist.Analysis.summarize !all_meta in
        Printf.printf "  metadata ops overall: mean=%.1f max=%d (paper: mean ~3, max ~10)\n\n"
          m.Persist.Analysis.mean m.Persist.Analysis.max
      end)
    Catalog.clean_drivers

(* ------------------------------------------------------------------ *)
(* E6/E8: performance microbenchmarks (Bechamel)                       *)

let mk_fs driver =
  let image = Pmem.Image.create ~size:driver.Vfs.Driver.device_size in
  let pm = Persist.Pm.create image in
  driver.Vfs.Driver.mkfs pm

(* Large devices for the timing loops so per-run mkfs cost is amortized
   across many operations. *)
let big_nova bugs = Novafs.driver ~config:(Novafs.config ~n_pages:8192 ~bugs ()) ()

let rename_loop h =
  (* The atomic-replace idiom: write a temp file, rename it over the target
     (what editors do on save - the workload behind Observation 2). *)
  (match h.Vfs.Handle.creat ~path:"/target" with
  | Error _ -> ()
  | Ok fd ->
    ignore (h.Vfs.Handle.write ~fd ~data:"seed");
    ignore (h.Vfs.Handle.close ~fd));
  for i = 0 to 511 do
    match h.Vfs.Handle.creat ~path:"/tmp_file" with
    | Error _ -> ()
    | Ok fd ->
      ignore (h.Vfs.Handle.write ~fd ~data:(Printf.sprintf "version %d padded out...." i));
      ignore (h.Vfs.Handle.close ~fd);
      ignore (h.Vfs.Handle.rename ~src:"/tmp_file" ~dst:"/target")
  done

let link_loop h =
  (* A well-populated directory: the unfixed in-place path must re-read the
     whole directory log to prove the update safe, which is what made the
     journalled fix faster in the paper. *)
  for i = 0 to 19 do
    match h.Vfs.Handle.creat ~path:(Printf.sprintf "/pre%02d" i) with
    | Error _ -> ()
    | Ok fd -> ignore (h.Vfs.Handle.close ~fd)
  done;
  (match h.Vfs.Handle.creat ~path:"/file" with
  | Error _ -> ()
  | Ok fd -> ignore (h.Vfs.Handle.close ~fd));
  for round = 0 to 7 do
    ignore round;
    for i = 0 to 23 do
      ignore (h.Vfs.Handle.link ~src:"/file" ~dst:(Printf.sprintf "/ln%02d" i))
    done;
    for i = 0 to 23 do
      ignore (h.Vfs.Handle.unlink ~path:(Printf.sprintf "/ln%02d" i))
    done
  done

(* A git-checkout-like metadata macrobenchmark: a small tree repeatedly
   switched between versions with rewrites and renames. *)
let metadata_macro h =
  ignore (h.Vfs.Handle.mkdir ~path:"/src");
  for i = 0 to 5 do
    match h.Vfs.Handle.creat ~path:(Printf.sprintf "/src/f%d" i) with
    | Error _ -> ()
    | Ok fd ->
      ignore (h.Vfs.Handle.write ~fd ~data:(String.make 200 (Char.chr (65 + i))));
      ignore (h.Vfs.Handle.close ~fd)
  done;
  (* Mostly reads and writes, renames only on a small fraction of
     operations, like a repository checkout. *)
  for v = 0 to 23 do
    for i = 0 to 5 do
      match h.Vfs.Handle.open_ ~path:(Printf.sprintf "/src/f%d" i) ~flags:[ Vfs.Types.O_RDWR ] with
      | Error _ -> ()
      | Ok fd ->
        ignore (h.Vfs.Handle.pwrite ~fd ~off:(v * 8 mod 160) ~data:(String.make 100 'x'));
        ignore (h.Vfs.Handle.pwrite ~fd ~off:120 ~data:(String.make 60 'y'));
        ignore (h.Vfs.Handle.read ~fd ~len:64);
        ignore (h.Vfs.Handle.close ~fd)
    done;
    match h.Vfs.Handle.creat ~path:"/src/tmp" with
    | Error _ -> ()
    | Ok fd ->
      ignore (h.Vfs.Handle.write ~fd ~data:"index-state");
      ignore (h.Vfs.Handle.close ~fd);
      ignore (h.Vfs.Handle.rename ~src:"/src/tmp" ~dst:"/src/index")
  done


let rename_bugs =
  {
    Novafs.Bugs.none with
    bug4_inplace_dentry_invalidate = true;
    bug5_tail_outside_journal = true;
  }

(* Deterministic cost model: count the PM traffic (non-temporal writes,
   flushes, fences, bytes) one workload iteration generates. Wall-clock at
   these microsecond scales is noisy; the PM operation counts are exactly
   the quantity the paper's Observation 2 reasons about (journalling more
   data = more persistent writes and ordering points). *)
let pm_cost driver loop =
  let image = Pmem.Image.create ~size:driver.Vfs.Driver.device_size in
  let pm = Persist.Pm.create image in
  let h = driver.Vfs.Driver.mkfs pm in
  let base = (Persist.Pm.stats pm).Persist.Pm.nt_calls in
  let base_f = (Persist.Pm.stats pm).Persist.Pm.fence_calls in
  let base_b = (Persist.Pm.stats pm).Persist.Pm.bytes_written in
  loop h;
  let st = Persist.Pm.stats pm in
  ( st.Persist.Pm.nt_calls - base,
    st.Persist.Pm.fence_calls - base_f,
    st.Persist.Pm.bytes_written - base_b )

let perf () =
  header "Observation 2 + section 6.2: performance of fixed vs unfixed NOVA (Bechamel)";
  Printf.printf "PM traffic per workload iteration (deterministic):\n";
  Printf.printf "%-28s %10s %10s %10s\n" "workload" "nt stores" "fences" "bytes";
  List.iter
    (fun (name, driver, loop) ->
      let nt, fences, bytes = pm_cost driver loop in
      Printf.printf "%-28s %10d %10d %10d\n" name nt fences bytes)
    [
      ("rename-overwrite/unfixed", big_nova rename_bugs, rename_loop);
      ("rename-overwrite/fixed", big_nova Novafs.Bugs.none, rename_loop);
      ( "link-churn/unfixed",
        big_nova { Novafs.Bugs.none with bug6_inplace_link_count = true },
        link_loop );
      ("link-churn/fixed", big_nova Novafs.Bugs.none, link_loop);
      ("metadata-macro/unfixed", big_nova rename_bugs, metadata_macro);
      ("metadata-macro/fixed", big_nova Novafs.Bugs.none, metadata_macro);
    ];
  Printf.printf "\nWall-clock (Bechamel, includes OCaml-level work such as the safety re-reads\n\
                 that made the paper's link fix faster):\n";
  let open Bechamel in
  let bench name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      bench "rename-overwrite/unfixed" (fun () -> rename_loop (mk_fs (big_nova rename_bugs)));
      bench "rename-overwrite/fixed" (fun () -> rename_loop (mk_fs (big_nova Novafs.Bugs.none)));
      bench "link-churn/unfixed" (fun () ->
          link_loop (mk_fs (big_nova { Novafs.Bugs.none with bug6_inplace_link_count = true })));
      bench "link-churn/fixed" (fun () -> link_loop (mk_fs (big_nova Novafs.Bugs.none)));
      bench "metadata-macro/unfixed" (fun () -> metadata_macro (mk_fs (big_nova rename_bugs)));
      bench "metadata-macro/fixed" (fun () -> metadata_macro (mk_fs (big_nova Novafs.Bugs.none)));
      bench "chipmunk-seq1/nova" (fun () ->
          ignore (Chipmunk.Campaign.run (Novafs.driver ()) (Ace.seq1 Ace.Strong)));
    ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 2.0) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"nova" tests) in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = List.sort compare (Hashtbl.fold (fun name r acc -> (name, r) :: acc) ols []) in
  let value name =
    match List.assoc_opt name rows with
    | Some r -> ( match Analyze.OLS.estimates r with Some [ v ] -> Some v | _ -> None)
    | None -> None
  in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ v ] -> Printf.printf "%-40s %14.0f ns/run\n" name v
      | _ -> Printf.printf "%-40s %14s\n" name "-")
    rows;
  let ratio fixed unfixed =
    match (value fixed, value unfixed) with
    | Some x, Some y when y > 0.0 -> Some (100.0 *. (x -. y) /. y)
    | _ -> None
  in
  (match ratio "nova/rename-overwrite/fixed" "nova/rename-overwrite/unfixed" with
  | Some p ->
    Printf.printf "\nrename microbench: fixed is %+.1f%% vs unfixed (paper: +25%%, slower)\n" p
  | None -> ());
  (match ratio "nova/link-churn/fixed" "nova/link-churn/unfixed" with
  | Some p -> Printf.printf "link microbench:   fixed is %+.1f%% vs unfixed (paper: -7%%, faster)\n" p
  | None -> ());
  (match ratio "nova/metadata-macro/fixed" "nova/metadata-macro/unfixed" with
  | Some p -> Printf.printf "metadata macro:    fixed is %+.1f%% vs unfixed (paper: <1%%)\n" p
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Cache and job-count transparency                                    *)

(* The same campaign with no cache, with the verdict cache, and with the
   verdict cache over [jobs] domains must report identical findings. Rewrites
   BENCH_parallel.json with the jobs=1 counts, which are deterministic, and
   the findings; wall-clock measurement lives in perfbench/. *)
let parallel_perf () =
  header (Printf.sprintf "Cache and job-count transparency (jobs=%d)" jobs);
  let mk_driver () =
    match Catalog.buggy_driver "nova" with
    | Some mk -> mk ()
    | None -> Novafs.driver ()
  in
  let suite () = Seq.append (Ace.seq1 Ace.Strong) (Seq.take 600 (Ace.seq2 Ace.Strong)) in
  let campaign exec = Chipmunk.Campaign.run ~exec (mk_driver ()) (suite ()) in
  let seq_nc = campaign (Chipmunk.Run.exec ~use_vcache:false ()) in
  let seq = campaign Chipmunk.Run.default_exec in
  let par = campaign (Chipmunk.Run.exec ~jobs ()) in
  let fps (r : Chipmunk.Campaign.result) =
    List.map (fun e -> e.Chipmunk.Campaign.fingerprint) r.Chipmunk.Campaign.events
  in
  let findings_equal = List.for_all (fun r -> fps r = fps seq) [ par; seq_nc ] in
  (* States that were actually mounted and checked (neither cache hit). *)
  let mounts (r : Chipmunk.Campaign.result) =
    r.Chipmunk.Campaign.crash_states - r.Chipmunk.Campaign.dedup_hits
    - r.Chipmunk.Campaign.vcache_hits
  in
  let rate n = float_of_int n /. float_of_int (max 1 seq.Chipmunk.Campaign.crash_states) in
  let hit_rate = rate seq.Chipmunk.Campaign.dedup_hits in
  let vcache_hit_rate = rate seq.Chipmunk.Campaign.vcache_hits in
  let row label (r : Chipmunk.Campaign.result) =
    Printf.printf "%-24s %10d states %8d dedup %8d vcache %8d mounts %4d findings\n" label
      r.Chipmunk.Campaign.crash_states r.Chipmunk.Campaign.dedup_hits
      r.Chipmunk.Campaign.vcache_hits (mounts r)
      (List.length r.Chipmunk.Campaign.events)
  in
  row "sequential, no cache" seq_nc;
  row "sequential (full)" seq;
  Printf.printf "dedup hit-rate %.1f%%, vcache hit-rate %.1f%%, findings at jobs=%d %s\n"
    (100.0 *. hit_rate) (100.0 *. vcache_hit_rate) jobs
    (if findings_equal then "identical" else "DIFFER");
  let module J = Chipmunk.Json in
  let run_obj (r : Chipmunk.Campaign.result) =
    J.obj
      [
        ("workloads", string_of_int r.Chipmunk.Campaign.workloads_run);
        ("crash_points", string_of_int r.Chipmunk.Campaign.crash_points);
        ("crash_states", string_of_int r.Chipmunk.Campaign.crash_states);
        ("dedup_hits", string_of_int r.Chipmunk.Campaign.dedup_hits);
        ("vcache_hits", string_of_int r.Chipmunk.Campaign.vcache_hits);
        ("mounts", string_of_int (mounts r));
        ("findings", string_of_int (List.length r.Chipmunk.Campaign.events));
      ]
  in
  let json =
    J.obj
      [
        ("schema", J.str "chipmunk-bench-parallel/6");
        ("suite", J.str "nova-buggy seq1 + seq2[:600]");
        ("jobs", string_of_int jobs);
        ("sequential_no_cache", run_obj seq_nc);
        ("sequential", run_obj seq);
        ("dedup_hit_rate", Printf.sprintf "%.4f" hit_rate);
        ("vcache_hit_rate", Printf.sprintf "%.4f" vcache_hit_rate);
        ("findings_equal", string_of_bool findings_equal);
        ( "findings",
          J.arr
            (List.map
               (fun e -> Chipmunk.Report.to_json e.Chipmunk.Campaign.report)
               seq.Chipmunk.Campaign.events) );
      ]
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_parallel.json\n"

(* ------------------------------------------------------------------ *)
(* Minimizer shrink factors                                            *)

(* One row per catalogued bug: find it from its trigger, minimize the
   finding, verify the minimized reproducer, and record the shrink factors.
   Rewrites BENCH_shrink.json (sibling of BENCH_parallel.json) so the
   minimizer's effectiveness is tracked across commits. *)
let shrink_bench () =
  header "Minimizer: delta-debugging shrink factors over the 25-bug corpus";
  let results =
    Chipmunk.Pool.map
      ~jobs:(min jobs (List.length Catalog.all))
      (fun (b : Catalog.t) ->
        let driver = b.Catalog.driver () in
        let r = Chipmunk.Harness.test_workload driver b.Catalog.trigger in
        match r.Chipmunk.Harness.reports with
        | [] -> Error "trigger found nothing"
        | rep :: _ -> (
          match Shrink.Minimize.run driver rep with
          | Error e -> Error e
          | Ok o ->
            let preserved =
              Chipmunk.Report.fingerprint o.Shrink.Minimize.report
              = Chipmunk.Report.fingerprint rep
            in
            let reverifies = Chipmunk.Reproduce.verify driver o.Shrink.Minimize.report in
            Ok (o, preserved, reverifies)))
      (List.to_seq Catalog.all)
  in
  Printf.printf "%-4s %-12s %10s %10s %10s %10s %6s %6s\n" "Bug" "FS" "ops" "min ops"
    "writes" "min wr" "fp" "repro";
  let ok_rows =
    List.filter_map
      (fun (_, (b : Catalog.t), res) ->
        match res with
        | Error e ->
          Printf.printf "%-4d %-12s FAILED: %s\n" b.Catalog.bug_no b.Catalog.fs e;
          None
        | Ok ((o : Shrink.Minimize.outcome), preserved, reverifies) ->
          let s = o.Shrink.Minimize.stats in
          Printf.printf "%-4d %-12s %10d %10d %10d %10d %6s %6s\n" b.Catalog.bug_no b.Catalog.fs
            s.Shrink.Minimize.ops_before s.Shrink.Minimize.ops_after
            s.Shrink.Minimize.subset_before s.Shrink.Minimize.subset_after
            (if preserved then "yes" else "NO")
            (if reverifies then "yes" else "NO");
          Some (b, s, preserved, reverifies))
      results
  in
  let median l =
    match List.sort compare l with
    | [] -> 0.0
    | sorted ->
      let n = List.length sorted in
      let nth i = float_of_int (List.nth sorted i) in
      if n mod 2 = 1 then nth (n / 2) else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0
  in
  let ops_before = List.map (fun (_, s, _, _) -> s.Shrink.Minimize.ops_before) ok_rows in
  let ops_after = List.map (fun (_, s, _, _) -> s.Shrink.Minimize.ops_after) ok_rows in
  let reduced =
    List.length
      (List.filter
         (fun (_, s, _, _) -> s.Shrink.Minimize.ops_after < s.Shrink.Minimize.ops_before)
         ok_rows)
  in
  let all_preserved = List.for_all (fun (_, _, p, _) -> p) ok_rows in
  let all_reverify = List.for_all (fun (_, _, _, r) -> r) ok_rows in
  let total stat = List.fold_left (fun a (_, s, _, _) -> a + stat s) 0 ok_rows in
  let harness_runs = total (fun s -> s.Shrink.Minimize.harness_runs) in
  let m_before = median ops_before and m_after = median ops_after in
  Printf.printf
    "\n%d/%d minimized; workload strictly shorter for %d; median ops %.1f -> %.1f \
     (%.2fx); fingerprints preserved: %b; reproducers re-verify: %b\n"
    (List.length ok_rows) (List.length Catalog.all) reduced m_before m_after
    (m_before /. Float.max 1.0 m_after)
    all_preserved all_reverify;
  Printf.printf "workload-ddmin probes: %d harness runs\n" harness_runs;
  let module J = Chipmunk.Json in
  let bug_obj ((b : Catalog.t), (s : Shrink.Minimize.stats), preserved, reverifies) =
    J.obj
      [
        ("bug_no", string_of_int b.Catalog.bug_no);
        ("fs", J.str b.Catalog.fs);
        ("ops_before", string_of_int s.Shrink.Minimize.ops_before);
        ("ops_after", string_of_int s.Shrink.Minimize.ops_after);
        ("subset_before", string_of_int s.Shrink.Minimize.subset_before);
        ("subset_after", string_of_int s.Shrink.Minimize.subset_after);
        ("harness_runs", string_of_int s.Shrink.Minimize.harness_runs);
        ("check_runs", string_of_int s.Shrink.Minimize.check_runs);
        ("fingerprint_preserved", string_of_bool preserved);
        ("reverifies", string_of_bool reverifies);
      ]
  in
  let json =
    J.obj
      [
        ("schema", J.str "chipmunk-bench-shrink/2");
        ("jobs", string_of_int jobs);
        ("minimized", string_of_int (List.length ok_rows));
        ("bug_instances", string_of_int (List.length Catalog.all));
        ("strictly_reduced", string_of_int reduced);
        ("median_ops_before", Printf.sprintf "%.1f" m_before);
        ("median_ops_after", Printf.sprintf "%.1f" m_after);
        ("fingerprints_preserved", string_of_bool all_preserved);
        ("reproducers_reverify", string_of_bool all_reverify);
        ("total_harness_runs", string_of_int harness_runs);
        ("bugs", J.arr (List.map bug_obj ok_rows));
      ]
  in
  let oc = open_out "BENCH_shrink.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_shrink.json\n"

(* ------------------------------------------------------------------ *)
(* Ablation                                                            *)

let ablation () =
  header "Ablation: interception granularity and coalescing (sections 3.2 and 6.2)";
  let w =
    [
      Vfs.Syscall.Creat { path = "/f"; fd_var = 0 };
      Vfs.Syscall.Write { fd_var = 0; data = { seed = 1; len = 1000 } };
      Vfs.Syscall.Close { fd_var = 0 };
    ]
  in
  Printf.printf "%-44s %12s %10s %12s %10s\n" "configuration" "trace recs" "max infl"
    "crash states" "truncated";
  List.iter
    (fun (name, granularity, coalesce, cap) ->
      let opts = { Chipmunk.Harness.default_opts with coalesce; granularity; cap } in
      let r = Chipmunk.Harness.test_workload ~opts (Novafs.driver ()) w in
      let st = r.Chipmunk.Harness.stats in
      Printf.printf "%-44s %12d %10d %12d %10d\n" name
        (Persist.Trace.length r.Chipmunk.Harness.trace)
        st.Chipmunk.Harness.max_in_flight st.Chipmunk.Harness.crash_states
        st.Chipmunk.Harness.truncated_points)
    [
      ("function-level + coalescing (Chipmunk)", Persist.Pm.Function_level, true, None);
      ("function-level, no coalescing", Persist.Pm.Function_level, false, None);
      ("instruction-level, cap=2 (Yat/Vinter-ish)", Persist.Pm.Instruction_level, false, Some 2);
      ("instruction-level, cap=5", Persist.Pm.Instruction_level, false, Some 5);
    ];
  Printf.printf
    "\n(A 1 KB write is one logical unit under function-level interception, but ~128\n\
     8-byte stores under instruction-level tracing: exhaustive subset replay would\n\
     need 2^128 states, the paper's argument for gray-box interception.)\n";
  (* Vinter's read-set reduction (section 6.2: a heuristic the paper says
     Chipmunk could adopt by recording PM read functions): enumerate
     subsets only over in-flight writes that a probe recovery reads. *)
  Printf.printf "\nRead-set heuristic over the 25-bug corpus (trigger workloads):\n";
  let total_off = ref 0 and total_on = ref 0 and found_off = ref 0 and found_on = ref 0 in
  List.iter
    (fun (b : Catalog.t) ->
      let run heur =
        let opts = { Chipmunk.Harness.default_opts with read_set_heuristic = heur } in
        let r = Chipmunk.Harness.test_workload ~opts (b.Catalog.driver ()) b.Catalog.trigger in
        (r.Chipmunk.Harness.reports <> [], r.Chipmunk.Harness.stats.Chipmunk.Harness.crash_states)
      in
      let f0, s0 = run false and f1, s1 = run true in
      total_off := !total_off + s0;
      total_on := !total_on + s1;
      if f0 then incr found_off;
      if f1 then incr found_on)
    Catalog.all;
  Printf.printf
    "  off: %d states, %d/25 found;  on: %d states (%.0f%%), %d/25 found\n\
     (with the cold-base fix — hot subsets checked both on the bare prefix and\n\
     with the never-read units applied — the reduction loses no bug here; the\n\
     paper discusses the same coverage-for-speed trade-off around Vinter)\n"
    !total_off !found_off !total_on
    (100.0 *. float_of_int !total_on /. float_of_int !total_off)
    !found_on;
  (* The full suites remain sound when run at the paper's fuzzing cap. *)
  let opts = { Chipmunk.Harness.default_opts with cap = Some 2 } in
  let r =
    Chipmunk.Campaign.run ~exec:(Chipmunk.Run.exec ~opts ()) (Novafs.driver ())
      (Ace.seq1 Ace.Strong)
  in
  Printf.printf "\nseq-1 on clean NOVA at cap=2: %d states, %d findings (expect 0)\n"
    r.Chipmunk.Campaign.crash_states
    (List.length r.Chipmunk.Campaign.events)

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    table1; table2; suite_stats; cap_sweep; inflight; ablation; figure3; perf; parallel_perf;
    shrink_bench;
  ]

let () =
  match Sys.argv with
  | [| _ |] -> List.iter (fun f -> f ()) all_experiments
  | [| _; "table1" |] -> table1 ()
  | [| _; "table2" |] -> table2 ()
  | [| _; "figure3" |] -> figure3 ()
  | [| _; "suite-stats" |] -> suite_stats ()
  | [| _; "cap-sweep" |] -> cap_sweep ()
  | [| _; "inflight" |] -> inflight ()
  | [| _; "perf" |] -> perf ()
  | [| _; "parallel" |] -> parallel_perf ()
  | [| _; "shrink" |] -> shrink_bench ()
  | [| _; "ablation" |] -> ablation ()
  | _ ->
    prerr_endline
      "usage: main.exe \
       [table1|table2|figure3|suite-stats|cap-sweep|inflight|perf|parallel|shrink|ablation]";
    exit 1
