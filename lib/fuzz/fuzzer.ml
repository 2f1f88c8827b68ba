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

(* What one execution slot sends back to the merge: everything the
   deterministic accumulator needs, nothing shared while running. *)
type slot_out = {
  s_workload : Vfs.Syscall.t list;
  s_hits : string list;  (* this execution's coverage points *)
  s_reports : Chipmunk.Report.t list;
  s_states : int;
  s_dedup_hits : int;
  s_vcache_hits : int;
  s_done_at : float;  (* wall-clock completion, seconds since t0 *)
}

let run ?(config = default_config) driver =
  let jobs = Run.effective_jobs config.exec in
  let budget = config.budget in
  let t0 = Unix.gettimeofday () in
  Cov.enable ();
  Cov.reset ();
  (* One verdict cache for the whole fuzzing run; slots share it through
     the harness's per-workload syncs. Mutated workloads keep long common
     prefixes with their seeds, so cross-execution hits are frequent. *)
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
  while (not !stopped) && not (out ()) do
    let n_slots =
      match budget.Run.max_execs with
      | None -> epoch_len
      | Some m -> min epoch_len (m - !execs)
    in
    let snapshot = !corpus in
    let e = !epoch in
    (* One slot = one execution. The RNG stream is a pure function of
       (seed, epoch, slot) and the corpus snapshot is fixed for the epoch,
       so the slot's workload — and, the harness being deterministic per
       workload on a fresh image, its whole outcome — does not depend on
       which domain runs it or on how many there are. *)
    let slot s =
      let rng = Random.State.make [| config.rng_seed; e; s |] in
      let workload =
        (* As in Syzkaller: usually mutate a seed, sometimes generate fresh. *)
        if Array.length snapshot = 0 || Random.State.int rng 4 = 0 then
          Prog.generate rng ~max_len:config.max_len
        else Prog.mutate rng snapshot.(Random.State.int rng (Array.length snapshot))
      in
      Cov.local_reset ();
      let r = Chipmunk.Harness.test_workload ~opts:config.exec.Run.opts ?vcache driver workload in
      {
        s_workload = workload;
        s_hits = Cov.local_hits ();
        s_reports = r.Chipmunk.Harness.reports;
        s_states = r.Chipmunk.Harness.stats.Chipmunk.Harness.crash_states;
        s_dedup_hits = r.Chipmunk.Harness.stats.Chipmunk.Harness.dedup_hits;
        s_vcache_hits = r.Chipmunk.Harness.stats.Chipmunk.Harness.vcache_hits;
        s_done_at = elapsed ();
      }
    in
    let time_up () =
      match budget.Run.max_seconds with None -> false | Some s -> elapsed () >= s
    in
    let completed = Chipmunk.Pool.map ~jobs ~stop:time_up slot (Seq.init n_slots Fun.id) in
    if List.length completed < n_slots then stopped := true;
    (* Epoch barrier: merge in slot order (Pool.map returns index-sorted
       results), so corpus admission, fingerprint dedup and at_exec
       attribution are identical at every job count. *)
    let fresh_seeds = ref [] in
    List.iter
      (fun (_, _, o) ->
        incr execs;
        states := !states + o.s_states;
        dhits := !dhits + o.s_dedup_hits;
        vhits := !vhits + o.s_vcache_hits;
        let novel = List.exists (fun p -> not (Hashtbl.mem seen_cov p)) o.s_hits in
        List.iter (fun p -> Hashtbl.replace seen_cov p ()) o.s_hits;
        if novel then fresh_seeds := o.s_workload :: !fresh_seeds;
        all_reports := List.rev_append o.s_reports !all_reports;
        Run.add found o.s_reports (fun fingerprint report ->
            { fingerprint; report; at_exec = !execs; elapsed = o.s_done_at; workload = o.s_workload }))
      completed;
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
