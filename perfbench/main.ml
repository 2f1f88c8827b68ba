(* The repository benchmark: long crash-consistency campaigns measured end
   to end, with a traced run that splits them by pipeline layer.

     main.exe --workload ace-nova|ace-pmfs|fuzz-nova-j1|fuzz-nova-j2 --seed N
              --seconds S --trace 0|1 [--write-reference]

   The benchmark sees each layer only from outside: it times calls into
   [Campaign.run], [Fuzz.Fuzzer.run], [Harness.record],
   [Harness.replay_recorded] and [Oracle.run], and a wrapping driver
   ([Ledger.wrap]) times mkfs, mount and every handle call. Every run
   checks its findings against the reference committed under
   perfbench/reference/. See perfbench/README.md. *)

module Run = Chipmunk.Run
module Harness = Chipmunk.Harness
module Campaign = Chipmunk.Campaign
module Fuzzer = Fuzz.Fuzzer
module Json = Chipmunk.Json

let now = Unix.gettimeofday
let fuzz_execs = 8192
let default_seed = 1

(* The fuzzer workloads run this RNG seed whatever [--seed] says: the
   fuzzer's seed changes the work itself, not only its order (over seeds
   1-12 the same exec budget enumerated 280k to 414k crash states), which
   no bound the benchmark may set would hold. *)
let fuzz_rng_seed = 1
let reference_dir = "perfbench/reference"
let out_dir = ".perfbench-out"

type workload = Ace_nova | Ace_pmfs | Fuzz_nova of int (* worker domains *)

let workloads =
  [
    ("ace-nova", Ace_nova);
    ("ace-pmfs", Ace_pmfs);
    ("fuzz-nova-j1", Fuzz_nova 1);
    ("fuzz-nova-j2", Fuzz_nova 2);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let buggy fs =
  match Catalog.buggy_driver fs with
  | Some mk -> mk ()
  | None -> failwith ("no buggy driver for " ^ fs)

(* ------------------------------------------------------------------ *)
(* Set-up: build the driver and the inputs the campaign is given.       *)

type input =
  | Suite of Vfs.Driver.t * (string * Vfs.Syscall.t list) array
  | Fuzz of Vfs.Driver.t * Fuzzer.config

(* The ACE suite is seq-1 plus the full seq-2 in Strong mode. The seed
   shuffles it within consecutive blocks of [shuffle_block] workloads: the
   fingerprint set does not depend on the order, but when each bug first
   surfaces and how the verdict cache fills do. A whole-suite shuffle would
   make [last_finding_s] on ace-nova a lottery, since its last findings
   come from two workloads each; within blocks it moves by at most one
   block. *)
let shuffle_block = 64

let ace_suite ~seed =
  let a = Array.of_seq (Seq.append (Ace.seq1 Ace.Strong) (Ace.seq2 Ace.Strong)) in
  let rng = Random.State.make [| seed |] in
  let n = Array.length a in
  for b = 0 to (n - 1) / shuffle_block do
    let lo = b * shuffle_block in
    for i = min n (lo + shuffle_block) - 1 downto lo + 1 do
      let j = lo + Random.State.int rng (i - lo + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  done;
  a

let fuzz_config ~jobs =
  Fuzzer.config ~rng_seed:fuzz_rng_seed
    ~budget:(Run.budget ~max_execs:fuzz_execs ())
    ~exec:{ Fuzzer.default_config.Fuzzer.exec with Run.jobs }
    ()

let setup w ~seed =
  match w with
  | Ace_nova -> Suite (buggy "nova", ace_suite ~seed)
  | Ace_pmfs -> Suite (buggy "pmfs", ace_suite ~seed)
  | Fuzz_nova jobs -> Fuzz (buggy "nova", fuzz_config ~jobs)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Set-up is short, so one sample repeats it for at least 50 ms and takes
   the mean. Samples are taken between campaign runs, to spread them over
   the invocation; [setup_s] is their median. *)
let setup_sample w ~seed =
  let t0 = now () and n = ref 0 and last = ref None in
  while !n = 0 || now () -. t0 < 0.05 do
    last := Some (setup w ~seed);
    incr n
  done;
  ((now () -. t0) /. float_of_int !n, Option.get !last)

let setup_samples = 9
let min_runs = 3

(* ------------------------------------------------------------------ *)
(* One campaign and what the benchmark checks about it.                 *)

(* Problems found so far; a run with any is not correct. *)
let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

type outcome = {
  fps : string list;  (* unique fingerprints, in discovery order *)
  last_finding : float;  (* elapsed of the last unique finding *)
  tests : int;  (* ACE workloads or fuzzer execs completed *)
  execs : int;  (* fuzzer execs; 0 on ACE *)
  crash_states : int;
  crash_points : int;  (* 0 where [Fuzzer.result] does not report it *)
  dedup_hits : int;
  vcache_hits : int;
  coverage : int;
  corpus_size : int;
}

(* Counters that a correct run must repeat exactly, by name. At jobs > 1
   the verdict-cache hit count depends on scheduling, so it is left out. *)
let counters ~jobs o =
  [
    ("tests", o.tests);
    ("crash_states", o.crash_states);
    ("crash_points", o.crash_points);
    ("dedup_hits", o.dedup_hits);
    ("coverage", o.coverage);
    ("corpus_size", o.corpus_size);
  ]
  @ if jobs = 1 then [ ("vcache_hits", o.vcache_hits) ] else []

let of_campaign (r : Campaign.result) =
  {
    fps = List.map (fun (e : Campaign.event) -> e.Campaign.fingerprint) r.Campaign.events;
    last_finding =
      List.fold_left (fun _ (e : Campaign.event) -> e.Campaign.elapsed) 0.0 r.Campaign.events;
    tests = r.Campaign.workloads_run;
    execs = 0;
    crash_states = r.Campaign.crash_states;
    crash_points = r.Campaign.crash_points;
    dedup_hits = r.Campaign.dedup_hits;
    vcache_hits = r.Campaign.vcache_hits;
    coverage = 0;
    corpus_size = 0;
  }

let of_fuzz (r : Fuzzer.result) =
  {
    fps = List.map (fun (e : Fuzzer.event) -> e.Fuzzer.fingerprint) r.Fuzzer.events;
    last_finding = List.fold_left (fun _ (e : Fuzzer.event) -> e.Fuzzer.elapsed) 0.0 r.Fuzzer.events;
    tests = r.Fuzzer.execs;
    execs = r.Fuzzer.execs;
    crash_states = r.Fuzzer.crash_states;
    crash_points = 0;
    dedup_hits = r.Fuzzer.dedup_hits;
    vcache_hits = r.Fuzzer.vcache_hits;
    coverage = r.Fuzzer.coverage;
    corpus_size = r.Fuzzer.corpus_size;
  }

type gc_delta = { minor_words : float; major_words : float; minor_gcs : int; major_gcs : int }

type timed = { o : outcome; wall : float; cpu : float; gc : gc_delta; heap_mb : float }

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Time one campaign call: wall clock, process CPU, GC deltas and the
   process's peak major heap. *)
let timed f =
  Gc.compact ();
  let g0 = Gc.quick_stat () and c0 = cpu_time () and t0 = now () in
  let o = f () in
  let t1 = now () and c1 = cpu_time () and g1 = Gc.quick_stat () in
  {
    o;
    wall = t1 -. t0;
    cpu = c1 -. c0;
    gc =
      {
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_words = g1.Gc.major_words -. g0.Gc.major_words;
        minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      };
    heap_mb = float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0;
  }

(* Run [f] in a forked child and return its result. Every untraced run
   starts from the same small heap, as a campaign started from the command
   line does, and the child's peak heap is that run's alone. Only the
   calling domain may be running. *)
let in_child (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      match f () with
      | v ->
        let oc = Unix.out_channel_of_descr w in
        Marshal.to_channel oc v [];
        close_out oc;
        0
      | exception e ->
        prerr_endline ("campaign run failed: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v = try Some (Marshal.from_channel ic : 'a) with End_of_file -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match v with Some v -> v | None -> failwith "campaign run failed")

let untraced = function
  | Suite (driver, suite) ->
    of_campaign (Campaign.run ~exec:Run.default_exec driver (Array.to_seq suite))
  | Fuzz (driver, config) -> of_fuzz (Fuzzer.run ~config driver)

(* ------------------------------------------------------------------ *)
(* The traced run.                                                      *)

(* The record / oracle / replay split of a traced run, and the parallel
   lanes its times are summed over. *)
type split = {
  record_s : float;
  oracle_s : float;  (* 0 where it is not measured *)
  snapshot_s : float;  (* 0 where replay makes no extra image copy *)
  replay_s : float;
  vcache_entries : int;  (* 0 where the verdict cache is not the benchmark's *)
  stores : int;
  fences : int;
  lanes : int;
}

type traced = { t_o : outcome; t_wall : float; ledger : Ledger.totals; split : split }

(* ACE: drive [Harness.record] then [Harness.replay_recorded] per
   workload, in suite order, with one shared verdict cache. That is the
   work [Campaign.run] does at jobs = 1 plus one thing: [replay_recorded]
   replays onto an [Image.snapshot] of the recording's base image, a copy
   [Campaign.run] does not make. A standalone snapshot of the same base is
   timed per workload and reported as [replay.snapshot_s], so that copy is
   accounted for on its own line. Counting the trace, the standalone
   [Oracle.run] and the standalone snapshot are the benchmark's own work;
   their time is left out of the traced campaign time, as is their share
   of [elapsed]. *)
let traced_ace driver suite =
  let d = Ledger.wrap driver in
  let vcache = Chipmunk.Vcache.create () in
  let seen = Hashtbl.create 64 in
  let fps = ref [] and last = ref 0.0 in
  let states = ref 0 and points = ref 0 and dedup = ref 0 and vhits = ref 0 in
  let rec_s = ref 0.0 and oracle_s = ref 0.0 and snapshot_s = ref 0.0 and replay_s = ref 0.0 in
  let own = ref 0.0 in
  let stores = ref 0 and fences = ref 0 in
  let t0 = now () in
  Array.iteri
    (fun i (_name, calls) ->
      let a = now () in
      let r = Harness.record d calls in
      let b = now () in
      Persist.Trace.iter r.Harness.rec_trace (function
        | Persist.Trace.Store _ -> incr stores
        | Persist.Trace.Fence -> incr fences
        | Persist.Trace.Syscall_begin _ | Persist.Trace.Syscall_end _ -> ());
      let s0 = now () in
      ignore (Pmem.Image.snapshot r.Harness.rec_base);
      let o0 = now () in
      ignore (Chipmunk.Oracle.run calls);
      let o1 = now () in
      let res = Harness.replay_recorded ~vcache d r in
      let e = now () in
      Ledger.bench_span "record" ~req:i a b;
      Ledger.bench_span "snapshot" ~req:i s0 o0;
      Ledger.bench_span "oracle" ~req:i o0 o1;
      Ledger.bench_span "replay" ~req:i o1 e;
      rec_s := !rec_s +. (b -. a);
      snapshot_s := !snapshot_s +. (o0 -. s0);
      oracle_s := !oracle_s +. (o1 -. o0);
      replay_s := !replay_s +. (e -. o1);
      own := !own +. (o1 -. b);
      let st = res.Harness.stats in
      states := !states + st.Harness.crash_states;
      points := !points + st.Harness.crash_points;
      dedup := !dedup + st.Harness.dedup_hits;
      vhits := !vhits + st.Harness.vcache_hits;
      List.iter
        (fun rep ->
          let fp = Chipmunk.Report.fingerprint rep in
          if not (Hashtbl.mem seen fp) then begin
            Hashtbl.replace seen fp ();
            fps := fp :: !fps;
            last := e -. t0 -. !own
          end)
        res.Harness.reports)
    suite;
  let t1 = now () in
  let ledger = Ledger.totals ~t_end:t1 in
  (* The wrapper reads the same counts off each recording's [Pm] counters,
     which is how the fuzzer's traces are counted; the two must agree. *)
  if !stores <> ledger.Ledger.trace_stores || !fences <> ledger.Ledger.trace_fences then
    problem "trace counts: Trace.iter %d/%d, Pm counters %d/%d" !stores !fences
      ledger.Ledger.trace_stores ledger.Ledger.trace_fences;
  {
    t_o =
      {
        fps = List.rev !fps;
        last_finding = !last;
        tests = Array.length suite;
        execs = 0;
        crash_states = !states;
        crash_points = !points;
        dedup_hits = !dedup;
        vcache_hits = !vhits;
        coverage = 0;
        corpus_size = 0;
      };
    t_wall = t1 -. t0 -. !own;
    ledger;
    split =
      {
        record_s = !rec_s;
        oracle_s = !oracle_s;
        snapshot_s = !snapshot_s;
        replay_s = !replay_s;
        vcache_entries = Chipmunk.Vcache.entries vcache;
        stores = !stores;
        fences = !fences;
        lanes = 1;
      };
  }

(* The fuzzer calls record, oracle and replay itself, so they are cut from
   each domain's timeline at the wrapper's boundaries: record runs from
   mkfs to the end of the last workload call, replay from there to the
   execution's end (the next mkfs, or the domain's exit). The programs the
   fuzzer executes are drawn and mutated inside [Fuzzer.run], so
   [Oracle.run] on them can be neither seen nor repeated from outside: its
   time stays in replay and [oracle.time_s] reads 0. *)
let traced_fuzz driver (config : Fuzzer.config) =
  let t0 = now () in
  let r = Fuzzer.run ~config (Ledger.wrap driver) in
  let t1 = now () in
  let ledger = Ledger.totals ~t_end:t1 in
  {
    t_o = of_fuzz r;
    t_wall = t1 -. t0;
    ledger;
    split =
      {
        record_s = ledger.Ledger.record_s;
        oracle_s = 0.0;
        snapshot_s = 0.0;
        replay_s = ledger.Ledger.after_record_s;
        vcache_entries = 0;
        stores = ledger.Ledger.trace_stores;
        fences = ledger.Ledger.trace_fences;
        lanes = config.Fuzzer.exec.Run.jobs;
      };
  }

let traced input =
  Ledger.reset ();
  Gc.compact ();
  let t0 = now () in
  let t =
    match input with
    | Suite (driver, suite) -> traced_ace driver suite
    | Fuzz (driver, config) -> traced_fuzz driver config
  in
  (t, t0)

(* ------------------------------------------------------------------ *)
(* References: the fingerprint set and exact counters of a correct run. *)

type reference = { r_counts : (string * int) list; r_fps : string list }

let reference_path w = Filename.concat reference_dir (workload_name w ^ ".ref")

let load_reference w =
  let path = reference_path w in
  if not (Sys.file_exists path) then failwith ("missing reference " ^ path);
  let ic = open_in path in
  let counts = ref [] and fps = ref [] in
  (try
     while true do
       let l = input_line ic in
       match String.index_opt l ' ' with
       | Some i when String.sub l 0 i = "count" -> (
         match String.split_on_char ' ' l with
         | [ _; k; v ] -> counts := (k, int_of_string v) :: !counts
         | _ -> failwith ("bad reference line: " ^ l))
       | Some i when String.sub l 0 i = "fingerprint" ->
         fps := String.sub l (i + 1) (String.length l - i - 1) :: !fps
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  { r_counts = List.rev !counts; r_fps = List.rev !fps }

let save_reference w ~header (r : reference) =
  let oc = open_out (reference_path w) in
  List.iter (fun l -> Printf.fprintf oc "# %s\n" l) header;
  List.iter (fun (k, v) -> Printf.fprintf oc "count %s %d\n" k v) r.r_counts;
  List.iter (fun fp -> Printf.fprintf oc "fingerprint %s\n" fp) (List.sort compare r.r_fps);
  close_out oc

module S = Set.Make (String)

(* Missing plus unexpected fingerprints, against the reference set. *)
let fp_diff ~what ~reference fps =
  let r = S.of_list reference and f = S.of_list fps in
  let missing = S.diff r f and extra = S.diff f r in
  S.iter (fun fp -> problem "%s: missing %s" what fp) missing;
  S.iter (fun fp -> problem "%s: unexpected %s" what fp) extra;
  (S.cardinal (S.union r f), S.cardinal missing + S.cardinal extra)

let check_counts ~what ~expected actual =
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k expected with
      | Some e when e <> v -> problem "%s: %s = %d, expected %d" what k v e
      | _ -> ())
    actual

(* ------------------------------------------------------------------ *)
(* Output.                                                              *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let mi name value = m name "count" (float_of_int value)
let num v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun x -> Printf.printf "  %-26s %s %s\n" x.name (num x.value) x.unit_) metrics;
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) (List.rev !problems);
  print_endline
    (Json.obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           Json.obj
             (List.map
                (fun x -> (x.name, Json.obj [ ("value", num x.value); ("unit", Json.str x.unit_) ]))
                metrics) );
       ])

let end_to_end ~setup_s reps =
  let med f = median (List.map f reps) in
  let last = List.hd (List.rev reps) in
  [
    m "setup_s" "s" setup_s;
    m "campaign_s" "s" (med (fun t -> t.wall));
    m "tests_per_s" "1/s" (med (fun t -> float_of_int t.o.tests /. t.wall));
    m "last_finding_s" "s" (med (fun t -> t.o.last_finding));
    m "cpu_s" "s" (med (fun t -> t.cpu));
    mi "findings" (List.length last.o.fps);
  ]

(* Per-layer metrics from the traced run [t]; GC figures come from the
   untraced run [u] of the same invocation. *)
let per_layer (u : timed) (t : traced) =
  let l = t.ledger in
  let time layer = l.Ledger.time_s.(layer) and n layer = l.Ledger.n.(layer) in
  let mount_s = time Ledger.mount and walk_s = time Ledger.walk and probe_s = time Ledger.probe in
  let mkfs_s = time Ledger.mkfs and workload_s = time Ledger.workload in
  let { record_s; oracle_s; snapshot_s; replay_s; vcache_entries; stores; fences; lanes } =
    t.split
  in
  let o = t.t_o in
  let lookups = o.crash_states - o.dedup_hits in
  [
    m "record.time_s" "s" record_s;
    mi "record.calls" (n Ledger.mkfs);
    m "record.setup_s" "s" (record_s -. mkfs_s -. workload_s);
    m "mkfs.time_s" "s" mkfs_s;
    m "workload.time_s" "s" workload_s;
    mi "workload.syscalls" (n Ledger.workload);
    mi "trace.stores" stores;
    mi "trace.fences" fences;
    m "oracle.time_s" "s" oracle_s;
    m "replay.time_s" "s" replay_s;
    mi "replay.crash_points" o.crash_points;
    mi "replay.crash_states" o.crash_states;
    m "replay.states_per_s" "1/s" (float_of_int o.crash_states /. replay_s);
    m "replay.snapshot_s" "s" snapshot_s;
    m "replay.other_s" "s" (replay_s -. oracle_s -. snapshot_s -. mount_s -. walk_s -. probe_s);
    mi "cache.dedup_hits" o.dedup_hits;
    mi "cache.vcache_hits" o.vcache_hits;
    mi "cache.vcache_lookups" lookups;
    m "cache.vcache_hit_rate" "ratio" (float_of_int o.vcache_hits /. float_of_int (max 1 lookups));
    mi "cache.vcache_entries" vcache_entries;
    m "mount.time_s" "s" mount_s;
    mi "mount.calls" (n Ledger.mount);
    mi "mount.failed" l.Ledger.failed_mounts;
    m "mount.mounts_per_s" "1/s" (float_of_int (n Ledger.mount) /. mount_s);
    m "walk.time_s" "s" walk_s;
    mi "walk.ops" (n Ledger.walk);
    m "probe.time_s" "s" probe_s;
    mi "probe.ops" (n Ledger.probe);
    m "gc.minor_words" "words" u.gc.minor_words;
    m "gc.major_words" "words" u.gc.major_words;
    mi "gc.minor_collections" u.gc.minor_gcs;
    mi "gc.major_collections" u.gc.major_gcs;
    m "gc.top_heap_mb" "MB" u.heap_mb;
    mi "fuzz.execs" o.execs;
    mi "fuzz.coverage" o.coverage;
    mi "fuzz.corpus_size" o.corpus_size;
    m "tracing.campaign_s" "s" t.t_wall;
    (* Less the image copies a campaign does not make, so that what is
       left is the wrapper's cost (and the machine's drift). *)
    m "tracing.overhead_s" "s" (t.t_wall -. snapshot_s -. u.wall);
    (* Time on [lanes] lanes that no record or replay span covers. *)
    m "tracing.unattributed_s" "s" ((float_of_int lanes *. t.t_wall) -. record_s -. replay_s);
  ]

(* ------------------------------------------------------------------ *)
(* Driver.                                                              *)

let usage () =
  prerr_endline
    "usage: main.exe --workload ace-nova|ace-pmfs|fuzz-nova-j1|fuzz-nova-j2 --seed N --seconds S --trace 0|1 \
     [--write-reference]";
  exit 2

type args = {
  w : workload;
  seed : int;
  seconds : float;
  trace : bool;
  write_ref : bool;
}

let parse_args () =
  let int v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go a = function
    | "--workload" :: v :: rest -> (
      match List.assoc_opt v workloads with Some w -> go { a with w } rest | None -> usage ())
    | "--seed" :: v :: rest -> go { a with seed = int v } rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> go { a with seconds = s } rest
      | _ -> usage ())
    | "--trace" :: "0" :: rest -> go { a with trace = false } rest
    | "--trace" :: "1" :: rest -> go { a with trace = true } rest
    | "--write-reference" :: rest -> go { a with write_ref = true } rest
    | [] -> a
    | _ -> usage ()
  in
  let argv = List.tl (Array.to_list Sys.argv) in
  if not (List.mem "--workload" argv) then usage ();
  go
    {
      w = Ace_nova;
      seed = default_seed;
      seconds = 55.0;
      trace = false;
      write_ref = false;
    }
    argv

let print_run i t =
  Printf.printf "  run %d: campaign %.3f s, cpu %.3f s, last finding %.3f s, peak heap %.1f MB\n" i
    t.wall t.cpu t.o.last_finding t.heap_mb

let () =
  let { w; seed; seconds; trace; write_ref } = parse_args () in
  let name = workload_name w in
  let jobs, input_seed =
    match w with Fuzz_nova j -> (j, fuzz_rng_seed) | Ace_nova | Ace_pmfs -> (1, seed)
  in
  let setup_time () = fst (setup_sample w ~seed) in
  let first_setup, input = setup_sample w ~seed in
  let setup_times = ref [ first_setup ] in
  (* ACE fingerprint sets and counters do not depend on the suite order, and
     the fuzzer runs one fixed seed, so one committed reference serves every
     seed. *)
  let { r_fps = reference; r_counts = ref_counts } =
    if write_ref then { r_fps = []; r_counts = [] } else load_reference w
  in
  let run_untraced () = in_child (fun () -> timed (fun () -> untraced input)) in
  (* Untraced: as many runs as fit in [seconds], at least [min_runs], so
     that the median is taken over three runs even when the machine is
     slow. Traced: one untraced run, then the traced run in this process,
     which has not run a campaign yet either; their difference is the
     tracing overhead. *)
  let runs =
    if trace then [ run_untraced () ]
    else
      let start = now () in
      let rec more acc =
        let t = run_untraced () in
        if List.length acc + 1 >= min_runs && now () -. start +. t.wall > seconds then
          List.rev (t :: acc)
        else begin
          setup_times := setup_time () :: !setup_times;
          more (t :: acc)
        end
      in
      more []
  in
  let first = List.hd runs in
  let attempted, failed = fp_diff ~what:"findings" ~reference first.o.fps in
  let check what t =
    check_counts ~what ~expected:ref_counts (counters ~jobs t.o);
    if t.o.fps <> first.o.fps then problem "%s: findings differ from run 0" what
  in
  List.iteri (fun i t -> check (Printf.sprintf "run %d" i) t) runs;
  List.iteri print_run runs;
  let metrics =
    if not trace then begin
      while List.length !setup_times < setup_samples do
        setup_times := setup_time () :: !setup_times
      done;
      end_to_end ~setup_s:(median !setup_times) runs
    end
    else begin
      let t, t_origin = traced input in
      if List.sort compare t.t_o.fps <> List.sort compare first.o.fps then
        problem "traced run: fingerprints differ from the untraced run";
      if jobs = 1 && t.t_o.fps <> first.o.fps then problem "traced run: discovery order differs";
      check_counts ~what:"traced run" ~expected:(counters ~jobs first.o) (counters ~jobs t.t_o);
      let layers = per_layer first t in
      let value k = (List.find (fun x -> x.name = k) layers).value in
      let exact = [ "trace.stores"; "trace.fences" ] @ if jobs = 1 then [ "mount.calls" ] else [] in
      let layer_counts = List.map (fun k -> (k, int_of_float (value k))) exact in
      check_counts ~what:"traced run" ~expected:ref_counts layer_counts;
      if write_ref then
        save_reference w
          ~header:
            [
              Printf.sprintf "perfbench reference for %s, input seed %d" name input_seed;
              "written by: main.exe --workload " ^ name ^ " --trace 1 --write-reference";
            ]
          { r_counts = counters ~jobs first.o @ layer_counts; r_fps = first.o.fps };
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" name input_seed) in
      Ledger.write_spans ~path ~t_origin;
      Printf.printf "  spans written to %s\n" path;
      layers
    end
  in
  Printf.printf "%s, input seed %d: %d untraced run(s)%s\n" name input_seed (List.length runs)
    (if trace then " + 1 traced run" else "");
  print_result ~correct:(!problems = []) ~attempted ~failed metrics
