module Run = Chipmunk.Run

let epoch_len = 32

type config = {
  rng_seed : int;
  max_len : int;
  budget : Run.budget;
  exec : Run.exec;
}

let default_config =
  {
    rng_seed = 1;
    max_len = 14;
    budget = Run.budget ~max_execs:2000 ~max_seconds:60.0 ();
    exec = Run.exec ~opts:{ Chipmunk.Harness.default_opts with cap = Some 2 } ();
  }

let config ?(rng_seed = default_config.rng_seed) ?(max_len = default_config.max_len)
    ?(budget = default_config.budget) ?(exec = default_config.exec) () =
  { rng_seed; max_len; budget; exec }

type event = {
  fingerprint : string;
  report : Chipmunk.Report.t;
  at_exec : int;
  elapsed : float;
  workload : Vfs.Syscall.t list;
}

type result = {
  execs : int;
  crash_states : int;
  coverage : int;
  corpus_size : int;
  dedup_hits : int;
  vcache_hits : int;
  events : event list;
  clusters : Triage.cluster list;
  elapsed : float;
}

let run ?(config = default_config) driver =
  let budget = config.budget in
  let t0 = Unix.gettimeofday () in
  (* One verdict cache for the whole fuzzing run. Mutated workloads keep
     long common prefixes with their seeds, so cross-execution hits are
     frequent. *)
  let vcache = if config.exec.Run.use_vcache then Some (Chipmunk.Vcache.create ()) else None in
  let vhits = ref 0 in
  let dhits = ref 0 in
  (* Corpus as an array so epoch snapshots are O(1) to capture and index;
     it only ever grows, at epoch boundaries, in execution order. *)
  let corpus = ref [||] in
  let seen_cov : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let found = Run.findings ?minimize:config.exec.Run.minimize budget in
  let all_reports = ref [] in
  let execs = ref 0 in
  let states = ref 0 in
  let stopped = ref false in
  let epoch = ref 0 in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let out () =
    Run.out_of_budget budget ~execs:!execs ~seconds:(elapsed ())
      ~findings:(Run.count found)
  in
  let time_up () =
    match budget.Run.max_seconds with None -> false | Some s -> elapsed () >= s
  in
  while (not !stopped) && not (out ()) do
    let n_slots =
      match budget.Run.max_execs with
      | None -> epoch_len
      | Some m -> min epoch_len (m - !execs)
    in
    let snapshot = !corpus in
    let fresh_seeds = ref [] in
    (* One slot = one execution. Its RNG stream is a pure function of
       (seed, epoch, slot) and it draws seeds only from the corpus snapshot
       taken at the epoch boundary, so the run is a pure function of the
       seed (and of [max_seconds], the one wall-clock stop). *)
    let slot s =
      let rng = Random.State.make [| config.rng_seed; !epoch; s |] in
      let workload =
        (* As in Syzkaller: usually mutate a seed, sometimes generate fresh. *)
        if Array.length snapshot = 0 || Random.State.int rng 4 = 0 then
          Prog.generate rng ~max_len:config.max_len
        else Prog.mutate rng snapshot.(Random.State.int rng (Array.length snapshot))
      in
      let r, hits =
        Cov.collect (fun () ->
            Chipmunk.Harness.test_workload ~opts:config.exec.Run.opts ?vcache driver workload)
      in
      let done_at = elapsed () in
      let st = r.Chipmunk.Harness.stats in
      incr execs;
      states := !states + st.Chipmunk.Harness.crash_states;
      dhits := !dhits + st.Chipmunk.Harness.dedup_hits;
      vhits := !vhits + st.Chipmunk.Harness.vcache_hits;
      if List.exists (fun p -> not (Hashtbl.mem seen_cov p)) hits then
        fresh_seeds := workload :: !fresh_seeds;
      List.iter (fun p -> Hashtbl.replace seen_cov p ()) hits;
      let reports = r.Chipmunk.Harness.reports in
      all_reports := List.rev_append reports !all_reports;
      Run.add found reports (fun fingerprint report ->
          { fingerprint; report; at_exec = !execs; elapsed = done_at; workload })
    in
    for s = 0 to n_slots - 1 do
      if not !stopped then if time_up () then stopped := true else slot s
    done;
    corpus := Array.append !corpus (Array.of_list (List.rev !fresh_seeds));
    incr epoch
  done;
  {
    execs = !execs;
    crash_states = !states;
    coverage = Hashtbl.length seen_cov;
    corpus_size = Array.length !corpus;
    dedup_hits = !dhits;
    vcache_hits = !vhits;
    events = Run.events found;
    clusters = Triage.cluster (List.rev !all_reports);
    elapsed = elapsed ();
  }
