(* Tests for the performance layer: the domain pool, parallel campaigns
   being bit-identical to sequential ones, per-point dedup through the
   verdict cache changing no detected report, and the read-set heuristic's
   cold-unit base (the fix for hot subsets being constructed on the wrong
   image). *)

module Campaign = Chipmunk.Campaign
module Harness = Chipmunk.Harness
module Pool = Chipmunk.Pool

(* --- Pool --- *)

(* Every [(index, input, output)] the pool emits, in emission order. *)
let emitted ?jobs ?stop f seq =
  let out = ref [] in
  Pool.iter ?jobs ?stop f seq (fun i x y -> out := (i, x, y) :: !out);
  List.rev !out

let test_pool_iter_ordered () =
  let inputs = List.init 100 Fun.id in
  let out = emitted ~jobs:4 (fun x -> x * x) (List.to_seq inputs) in
  Alcotest.(check int) "all tasks ran" 100 (List.length out);
  List.iteri
    (fun k (i, x, y) ->
      Alcotest.(check int) "index order" k i;
      Alcotest.(check int) "input preserved" k x;
      Alcotest.(check int) "output matches" (k * k) y)
    out

let test_pool_sequential_fallback () =
  let out = emitted ~jobs:1 (fun x -> x + 1) (List.to_seq [ 10; 20; 30 ]) in
  Alcotest.(check (list (pair int int)))
    "jobs=1 identical semantics"
    [ (0, 11); (1, 21); (2, 31) ]
    (List.map (fun (i, _, y) -> (i, y)) out)

let test_pool_stop_prefix () =
  (* Once [stop] flips, no new tasks dispatch; emitted indices form a
     contiguous prefix. *)
  let stopped = Atomic.make false in
  let out =
    emitted ~jobs:3
      ~stop:(fun () -> Atomic.get stopped)
      (fun x ->
        if x >= 5 then Atomic.set stopped true;
        x)
      (Seq.init 1000 Fun.id)
  in
  let n = List.length out in
  Alcotest.(check bool) "stopped early" true (n < 1000);
  List.iteri (fun k (i, _, _) -> Alcotest.(check int) "contiguous prefix" k i) out

let test_pool_exception_propagates () =
  Alcotest.check_raises "worker exception re-raised" (Failure "boom") (fun () ->
      ignore (emitted ~jobs:2 (fun x -> if x = 7 then failwith "boom" else x) (Seq.init 50 Fun.id)))

let test_pool_callback_raises () =
  (* An exception from the callback drains the pool like one from [f]:
     nothing after it is emitted, and it reaches the caller. *)
  let last = ref (-1) in
  Alcotest.check_raises "callback exception re-raised" (Failure "merge") (fun () ->
      Pool.iter ~jobs:2 Fun.id (Seq.init 50 Fun.id) (fun i _ _ ->
          if i = 9 then failwith "merge";
          last := i));
  Alcotest.(check int) "emitted in order up to the failing index" 8 !last

let test_pool_stop_reads_callback_state () =
  (* [stop] and the callback run under one lock, so [stop] may read a
     plain counter the callback writes. At jobs=1 each result is merged
     before the next dispatch, so the run stops exactly at the cap; with
     more domains, tasks already in flight still complete and are merged. *)
  List.iter
    (fun jobs ->
      let merged = ref 0 in
      Pool.iter ~jobs
        ~stop:(fun () -> !merged >= 10)
        Fun.id (Seq.init 1000 Fun.id)
        (fun _ _ _ -> incr merged);
      if jobs = 1 then Alcotest.(check int) "jobs=1 stops at the cap" 10 !merged
      else
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d reaches the cap (%d merged)" jobs !merged)
          true (!merged >= 10))
    [ 1; 2; 4 ]

let test_pool_lazy_seq () =
  (* The sequence is forced at most once per element, even across domains. *)
  let forced = Atomic.make 0 in
  let seq =
    Seq.init 64 (fun i ->
        Atomic.incr forced;
        i)
  in
  let out = emitted ~jobs:4 Fun.id seq in
  Alcotest.(check int) "every element seen" 64 (List.length out);
  Alcotest.(check int) "each element forced once" 64 (Atomic.get forced)

(* --- Parallel campaigns are deterministic --- *)

let catalog_suite () =
  Catalog.all
  |> List.map (fun (b : Catalog.t) ->
         (Printf.sprintf "bug-%02d-%s" b.Catalog.bug_no b.Catalog.fs, b.Catalog.trigger))
  |> List.to_seq

let nova_buggy () =
  match Catalog.buggy_driver "nova" with
  | Some mk -> mk ()
  | None -> Alcotest.fail "no buggy nova driver"

let event_key (e : Campaign.event) = (e.fingerprint, e.workload_index, e.workload_name)

let test_parallel_matches_sequential () =
  let driver = nova_buggy () in
  let seq_r = Campaign.run driver (catalog_suite ()) in
  let par_r =
    Campaign.run ~exec:(Chipmunk.Run.exec ~jobs:4 ()) driver (catalog_suite ())
  in
  Alcotest.(check bool) "found something" true (seq_r.Campaign.events <> []);
  Alcotest.(check (list (triple string int string)))
    "same fingerprints, workload indices and names, in discovery order"
    (List.map event_key seq_r.Campaign.events)
    (List.map event_key par_r.Campaign.events);
  Alcotest.(check int) "same workload count" seq_r.Campaign.workloads_run
    par_r.Campaign.workloads_run;
  Alcotest.(check int) "same crash states" seq_r.Campaign.crash_states
    par_r.Campaign.crash_states;
  Alcotest.(check int) "same crash points" seq_r.Campaign.crash_points
    par_r.Campaign.crash_points

let test_parallel_repeatable () =
  (* Two parallel runs with different job counts agree with each other. *)
  let driver = nova_buggy () in
  let r2 = Campaign.run ~exec:(Chipmunk.Run.exec ~jobs:2 ()) driver (catalog_suite ()) in
  let r4 = Campaign.run ~exec:(Chipmunk.Run.exec ~jobs:4 ()) driver (catalog_suite ()) in
  Alcotest.(check (list (triple string int string)))
    "jobs=2 and jobs=4 agree"
    (List.map event_key r2.Campaign.events)
    (List.map event_key r4.Campaign.events)

(* --- Per-point dedup through the verdict cache --- *)

let test_dedup_equivalent_reports () =
  let total_hits = ref 0 in
  List.iter
    (fun (b : Catalog.t) ->
      let run vcache = Harness.test_workload ?vcache (b.Catalog.driver ()) b.Catalog.trigger in
      let on = run (Some (Chipmunk.Vcache.create ())) and off = run None in
      Alcotest.(check (list string))
        (Printf.sprintf "bug %d (%s): same reports with cache on and off" b.Catalog.bug_no
           b.Catalog.fs)
        (List.map Chipmunk.Report.fingerprint off.Harness.reports)
        (List.map Chipmunk.Report.fingerprint on.Harness.reports);
      Alcotest.(check int)
        "cache does not change the enumerated state count" off.Harness.stats.Harness.crash_states
        on.Harness.stats.Harness.crash_states;
      Alcotest.(check int) "cache off never skips" 0 off.Harness.stats.Harness.dedup_hits;
      Alcotest.(check int) "cache off never hits" 0 off.Harness.stats.Harness.vcache_hits;
      total_hits := !total_hits + on.Harness.stats.Harness.dedup_hits)
    Catalog.all;
  Alcotest.(check bool)
    (Printf.sprintf "nonzero hit count over the catalog (%d hits)" !total_hits)
    true (!total_hits > 0)

let test_dedup_skips_equal_states () =
  (* A workload whose trailing stores rewrite bytes already on media: the
     subsets differing only in those no-op writes collapse to one image. *)
  let w =
    [
      Vfs.Syscall.Creat { path = "/a"; fd_var = 0 };
      Vfs.Syscall.Write { fd_var = 0; data = { seed = 5; len = 256 } };
      Vfs.Syscall.Close { fd_var = 0 };
    ]
  in
  let r = Harness.test_workload ~vcache:(Chipmunk.Vcache.create ()) (Novafs.driver ()) w in
  Alcotest.(check bool) "clean workload" true (r.Harness.reports = []);
  Alcotest.(check bool)
    (Printf.sprintf "some duplicate crash states skipped (%d of %d)"
       r.Harness.stats.Harness.dedup_hits r.Harness.stats.Harness.crash_states)
    true
    (r.Harness.stats.Harness.dedup_hits > 0)

(* --- Read-set heuristic: cold units applied with the prefix --- *)

let test_read_set_cold_base_regression () =
  (* Before the cold-base fix, hot subsets were constructed on the bare
     prefix only, so damage in units recovery never reads (bug 3's log
     extension page) could never surface. With the fix every catalogued
     bug is found under the heuristic. *)
  let opts = { Harness.default_opts with read_set_heuristic = true } in
  List.iter
    (fun (b : Catalog.t) ->
      let r = Harness.test_workload ~opts (b.Catalog.driver ()) b.Catalog.trigger in
      Alcotest.(check bool)
        (Printf.sprintf "bug %d (%s) found under the read-set heuristic" b.Catalog.bug_no
           b.Catalog.fs)
        true (r.Harness.reports <> []))
    Catalog.all

let suite =
  [
    Alcotest.test_case "pool: iter emits in index order" `Quick test_pool_iter_ordered;
    Alcotest.test_case "pool: jobs=1 sequential fallback" `Quick test_pool_sequential_fallback;
    Alcotest.test_case "pool: stop gives a contiguous prefix" `Quick test_pool_stop_prefix;
    Alcotest.test_case "pool: exceptions propagate" `Quick test_pool_exception_propagates;
    Alcotest.test_case "pool: callback exceptions propagate" `Quick test_pool_callback_raises;
    Alcotest.test_case "pool: stop reads state the callback writes" `Quick
      test_pool_stop_reads_callback_state;
    Alcotest.test_case "pool: sequence forced once per element" `Quick test_pool_lazy_seq;
    Alcotest.test_case "campaign: parallel == sequential" `Quick test_parallel_matches_sequential;
    Alcotest.test_case "campaign: parallel repeatable across job counts" `Quick
      test_parallel_repeatable;
    Alcotest.test_case "dedup cache: reports identical on/off" `Quick
      test_dedup_equivalent_reports;
    Alcotest.test_case "dedup cache: duplicate states skipped" `Quick
      test_dedup_skips_equal_states;
    Alcotest.test_case "read-set heuristic: cold units applied with prefix" `Quick
      test_read_set_cold_base_regression;
  ]
