module Pm = Persist.Pm
module Trace = Persist.Trace
module Image = Pmem.Image

type opts = {
  cap : int option;
  coalesce : bool;
  granularity : Pm.granularity;
  read_set_heuristic : bool;
}

let default_opts =
  {
    cap = None;
    coalesce = true;
    granularity = Pm.Function_level;
    read_set_heuristic = false;
  }

type stats = {
  mutable crash_points : int;
  mutable crash_states : int;
  mutable max_in_flight : int;
  mutable dedup_hits : int;
  mutable vcache_hits : int;
  mutable truncated_points : int;
  mutable states_skipped : int;
  mutable oracle_reused : int;
  mutable points_reused : int;
  mutable probes_reused : int;
}

type result = {
  reports : Report.t list;
  fingerprints : string list;
  stats : stats;
  trace : Persist.Trace.t;
  outcomes : Vfs.Workload.outcome list;
}

type recording = {
  rec_calls : Vfs.Syscall.t list;
  rec_trace : Persist.Trace.t;
  rec_base : Pmem.Image.t;
  rec_outcomes : Vfs.Workload.outcome list;
}

type crash_point = {
  fence_no : int;
  phase : Checker.phase;
  after_syscall : int option;
  at_fence : bool;
  in_flight : Coalesce.t list;
}

let max_states_per_point = 512

let add_saturating a b = if a > max_int - b then max_int else a + b

let new_stats () =
  {
    crash_points = 0;
    crash_states = 0;
    max_in_flight = 0;
    dedup_hits = 0;
    vcache_hits = 0;
    truncated_points = 0;
    states_skipped = 0;
    oracle_reused = 0;
    points_reused = 0;
    probes_reused = 0;
  }

let add_stats ~into s =
  into.crash_points <- into.crash_points + s.crash_points;
  into.crash_states <- into.crash_states + s.crash_states;
  into.max_in_flight <- max into.max_in_flight s.max_in_flight;
  into.dedup_hits <- into.dedup_hits + s.dedup_hits;
  into.vcache_hits <- into.vcache_hits + s.vcache_hits;
  into.truncated_points <- into.truncated_points + s.truncated_points;
  into.states_skipped <- add_saturating into.states_skipped s.states_skipped;
  into.oracle_reused <- into.oracle_reused + s.oracle_reused;
  into.points_reused <- into.points_reused + s.points_reused;
  into.probes_reused <- into.probes_reused + s.probes_reused

(* How many subsets of {0..n-1} have at most [max_size] elements,
   saturating at [max_int]. C(n, k+1) = C(n, k) (n-k) / (k+1) exactly. *)
let count_subsets ~n ~max_size =
  let rec go k c acc =
    let acc = add_saturating acc c in
    if k = max_size then acc
    else if c > max_int / (n - k) then max_int
    else go (k + 1) (c * (n - k) / (k + 1)) acc
  in
  go 0 1 0

(* Enumerate index subsets of {0..n-1} in increasing size order, invoking
   [yield] on each; sizes above [cap] are skipped, and enumeration stops
   after [limit] subsets. The empty subset (the fully-fenced prefix state)
   is always yielded first. Every [combo] call leads to at least one
   subset, so the budget check raises only when a subset is actually
   skipped: the result is the number of subsets [limit] cut, 0 when it
   cut none. *)
let enumerate_subsets ~n ~cap ~limit yield =
  let count = ref 0 in
  let budget () = !count < limit in
  let emit s =
    incr count;
    yield s
  in
  let max_size = match cap with None -> n | Some c -> min c n in
  try
    emit [];
    for size = 1 to max_size do
      (* Combinations of [size] indices, lexicographic. *)
      let rec combo acc start remaining =
        if not (budget ()) then raise Exit
        else if remaining = 0 then emit (List.rev acc)
        else
          for i = start to n - remaining do
            combo (i :: acc) (i + 1) (remaining - 1)
          done
      in
      combo [] 0 size
    done;
    0
  with Exit -> count_subsets ~n ~max_size - limit

(* What picks a crash point's states besides its fence-prefix image: the
   in-flight units' (address, bytes) parts in order, unit by unit, and the
   cap. A 63-bit FNV-style fold; each string enters through two seeded
   full-length hashes. *)
let point_signature ~cap units =
  let mix h x = (h lxor x) * 0x100000001b3 in
  List.fold_left
    (fun h (u : Coalesce.t) ->
      List.fold_left
        (fun h (addr, data) ->
          mix
            (mix (mix (mix h addr) (String.length data)) (Hashtbl.seeded_hash 1 data))
            (Hashtbl.seeded_hash 2 data))
        (mix h (-1)) u.Coalesce.parts)
    (mix 0x2bf29ce484222325 (match cap with None -> -1 | Some c -> c))
    units

(* The post-recovery usability probe: create a file in every directory,
   write to it, remove it, then delete every file and directory. *)
let usability_probe (h : Vfs.Handle.t) tree =
  let fail = ref None in
  let note what path e =
    if !fail = None then
      fail := Some (Printf.sprintf "%s %s: %s" what path (Vfs.Errno.to_string e))
  in
  let dirs =
    List.filter_map
      (fun n ->
        if n.Vfs.Walker.kind = Some Vfs.Types.Dir && n.Vfs.Walker.error = None then
          Some n.Vfs.Walker.path
        else None)
      tree
  in
  List.iter
    (fun dir ->
      let probe = Vfs.Path.concat dir ".chkprobe" in
      match h.Vfs.Handle.creat ~path:probe with
      | Error e -> note "creat probe in" dir e
      | Ok fd -> (
        (match h.Vfs.Handle.write ~fd ~data:"probe" with
        | Error e -> note "write probe in" dir e
        | Ok _ -> ());
        (match h.Vfs.Handle.close ~fd with Error e -> note "close probe in" dir e | Ok () -> ());
        match h.Vfs.Handle.unlink ~path:probe with
        | Error e -> note "unlink probe in" dir e
        | Ok () -> ()))
    dirs;
  (* Delete everything: files first, then directories bottom-up. *)
  List.iter
    (fun n ->
      if n.Vfs.Walker.kind = Some Vfs.Types.Reg then
        match h.Vfs.Handle.unlink ~path:n.Vfs.Walker.path with
        | Ok () -> ()
        | Error Vfs.Errno.ENOENT -> () (* removed via an earlier hard link *)
        | Error e -> note "unlink" n.Vfs.Walker.path e)
    tree;
  let dirs_deep_first =
    List.sort (fun a b -> compare (String.length b) (String.length a)) dirs
  in
  List.iter
    (fun dir ->
      if dir <> "/" then
        match h.Vfs.Handle.rmdir ~path:dir with
        | Ok () -> ()
        | Error e -> note "rmdir" dir e)
    dirs_deep_first;
  !fail

(* Phase 1: execute the workload on an instrumented fresh file system on
   [cpu] (cleared here), logging every PM write. [base] turns the post-mkfs
   image into [rec_base]: a snapshot for a self-contained recording, from
   which crash states can be rebuilt any number of times without re-running
   the workload (see [replay_recorded]). *)
let record_on ~opts (driver : Vfs.Driver.t) calls ~cpu ~base =
  Image.clear cpu;
  let pm = Pm.create cpu in
  let handle = driver.Vfs.Driver.mkfs pm in
  let base = base cpu in
  let trace = Trace.create () in
  Pm.set_granularity pm opts.granularity;
  Pm.trace_to pm trace;
  let before idx call =
    Pm.mark_syscall_begin pm ~idx ~descr:(Vfs.Syscall.to_string call)
  in
  let after idx _call ret = Pm.mark_syscall_end pm ~idx ~ret in
  let outcomes = Vfs.Workload.run ~before ~after handle calls in
  Pm.set_logger pm None;
  { rec_calls = calls; rec_trace = trace; rec_base = base; rec_outcomes = outcomes }

(* One reusable (CPU view, replay) image pair per domain, so a workload
   allocates no device images. The pair is taken out of the slot while in
   use: a nested call on the same domain finds the slot empty and makes its
   own pair, and a call that raises simply drops its pair. *)
let image_pair : (Image.t * Image.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_image_pair size f =
  let pair =
    match Domain.DLS.get image_pair with
    | Some ((cpu, _) as p) when Image.size cpu = size ->
      Domain.DLS.set image_pair None;
      p
    | _ -> (Image.create ~size, Image.create ~size)
  in
  let r = f pair in
  Domain.DLS.set image_pair (Some pair);
  r

let record ?(opts = default_opts) (driver : Vfs.Driver.t) calls =
  with_image_pair driver.Vfs.Driver.device_size (fun (cpu, _) ->
      record_on ~opts driver calls ~cpu ~base:Image.snapshot)

let point_key ?(opts = default_opts) ~replay (p : crash_point) =
  (Image.digest replay, point_signature ~cap:opts.cap p.in_flight)

let walk ?(opts = default_opts) ~replay trace f =
  let vec = ref [] (* newest first *) in
  let cur_syscall = ref None in
  let last_done = ref None in
  let fence_no = ref 0 in
  let point ~at_fence phase =
    incr fence_no;
    let in_flight = List.rev !vec in
    let after_syscall = match phase with Checker.After i -> Some i | _ -> !last_done in
    f { fence_no = !fence_no; phase; after_syscall; at_fence; in_flight };
    in_flight
  in
  Trace.iter trace (function
    | Trace.Store s -> vec := Coalesce.add ~coalesce:opts.coalesce !vec s ~syscall:!cur_syscall
    | Trace.Fence ->
      let phase =
        match (!cur_syscall, !last_done) with
        | Some i, _ -> Checker.During i
        | None, Some i -> Checker.After i
        | None, None -> Checker.Initial
      in
      List.iter (Coalesce.apply (Image.write_string replay)) (point ~at_fence:true phase);
      vec := []
    | Trace.Syscall_begin { idx; _ } -> cur_syscall := Some idx
    | Trace.Syscall_end { idx; _ } ->
      cur_syscall := None;
      ignore (point ~at_fence:false (Checker.After idx));
      last_done := Some idx)

let mount_and_check_with ~probe (driver : Vfs.Driver.t) ~workload ~oracle ~phase image =
  let pm = Pm.create image in
  match driver.Vfs.Driver.mount pm with
  | exception e -> [ Report.Recovery_fault (Pmem.Fault.to_string e) ]
  | Error m -> [ Report.Unmountable m ]
  | Ok h -> (
    match
      let tree = Vfs.Walker.capture h in
      let ks =
        Checker.check ~atomic_data:driver.Vfs.Driver.atomic_data
          ~consistency:driver.Vfs.Driver.consistency ~workload ~oracle ~phase ~tree
      in
      if ks = [] then
        match probe h tree with Some m -> [ Report.Unusable m ] | None -> []
      else ks
    with
    | ks -> ks
    | exception e -> [ Report.Recovery_fault (Pmem.Fault.to_string e) ])

let mount_and_check driver = mount_and_check_with ~probe:usability_probe driver

(* Phases 2+3: oracle, then the replay loop over the trace. [replay] is
   consumed (mutated throughout); pass a snapshot to keep the base image. *)
let replay_phases ~opts ?vcache (driver : Vfs.Driver.t) ~calls ~trace ~outcomes
    ~replay =
  (* Phase 2: the oracle. With a verdict cache it comes from the cache's
     call-prefix trie, which captures only the boundaries no earlier
     program of the campaign had. *)
  let program = Option.map (fun vc -> (vc, Vcache.program vc calls)) vcache in
  let oracle = match program with Some (_, p) -> Vcache.oracle p | None -> Oracle.run calls in
  (* Phase 3: replay. *)
  let stats = new_stats () in
  Option.iter (fun (_, p) -> stats.oracle_reused <- Vcache.reused p) program;
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let reports = ref [] (* (report, fingerprint), newest first *) in
  let workload_arr = Array.of_list calls in
  let fsync_boundary idx =
    idx < Array.length workload_arr && Vfs.Syscall.is_fsync_family workload_arr.(idx)
  in
  let during_syscall (p : crash_point) =
    match p.phase with Checker.During i -> Some i | _ -> None
  in
  let fingerprinted ~context kinds =
    List.map (fun k -> (k, Report.fingerprint_of ~fs:driver.Vfs.Driver.name ~context k)) kinds
  in
  (* [units] runs only for a fingerprint this workload has not reported
     yet. *)
  let emit (p : crash_point) ~units verdicts =
    List.iter
      (fun (kind, fp) ->
        if not (Hashtbl.mem seen fp) then begin
          Hashtbl.replace seen fp ();
          let crash_point =
            {
              Report.fence_no = p.fence_no;
              during_syscall = during_syscall p;
              after_syscall = p.after_syscall;
              subset = List.map (fun (u : Coalesce.t) -> u.seq) (units ());
              in_flight = List.length p.in_flight;
            }
          in
          reports :=
            ({ Report.fs = driver.Vfs.Driver.name; workload = calls; crash_point; kind }, fp)
            :: !reports
        end)
      verdicts
  in
  (* Run [f] on the replay image with [units] applied, then roll back,
     undoing the units and whatever [f] wrote (recovery, the probe). *)
  let on_state units f =
    Image.checkpoint replay;
    List.iter (Coalesce.apply (Image.write_string replay)) units;
    let r = f () in
    Image.rollback replay;
    r
  in
  (* The Vinter-style read-set heuristic (paper section 6.2): probe-mount
     the fully-fenced prefix state with a read recorder armed, then keep
     only the in-flight writes whose target addresses recovery actually
     inspects. Writes recovery never reads cannot change its outcome, so
     subsets are enumerated over the hot units only. *)
  let recovery_read_set () =
    on_state [] (fun () ->
        let pm2 = Pm.create replay in
        let reads = ref [] in
        Pm.set_read_hook pm2 (Some (fun off len -> reads := (off, len) :: !reads));
        (try
           match driver.Vfs.Driver.mount pm2 with
           | exception _ -> ()
           | Error _ -> ()
           | Ok _ -> ()
         with _ -> ());
        !reads)
  in
  let overlaps_reads reads (u : Coalesce.t) =
    List.exists
      (fun (addr, data) ->
        let e = addr + String.length data in
        List.exists (fun (roff, rlen) -> addr < roff + rlen && roff < e) reads)
      u.Coalesce.parts
  in
  let check_point (p : crash_point) =
    let weak = driver.Vfs.Driver.consistency = Vfs.Driver.Weak in
    let should_check =
      if not weak then true
      else match p.phase with Checker.After i -> fsync_boundary i | _ -> false
    in
    if should_check then begin
      stats.crash_points <- stats.crash_points + 1;
      let units_arr, cold_units =
        if opts.read_set_heuristic && p.in_flight <> [] then begin
          let reads = recovery_read_set () in
          let hot, cold = List.partition (overlaps_reads reads) p.in_flight in
          (Array.of_list hot, cold)
        end
        else (Array.of_list p.in_flight, [])
      in
      (* Under the read-set heuristic, subsets are enumerated over the hot
         units only — but the cold (never-read) units still exist, and
         hot-subset states must also be constructed on the base that has
         them applied: recovery cannot observe cold writes, yet the checker
         can (file data is typically cold), so each hot subset is checked
         both without the cold units (prefix base, where un-persisted cold
         data exposes atomicity/torn-data bugs) and with all of them
         applied (the base the next crash point builds on, where persisted
         cold damage surfaces). With nothing hot this keeps the full-vector
         state checked. Without the heuristic there are no cold units and
         the single prefix base is used. *)
      let bases = if cold_units = [] then [ [] ] else [ []; cold_units ] in
      let n = Array.length units_arr in
      stats.max_in_flight <- max stats.max_in_flight n;
      (* The point's states: each subset on each base, in enumeration
         order. A state's writes are its base and subset merged back into
         in-flight (= sequence-number) order; the report's subset names
         all of them, so {!Reproduce} rebuilds the same image. *)
      let states = ref [] in
      let skipped =
        enumerate_subsets ~n ~cap:opts.cap ~limit:max_states_per_point (fun idxs ->
            List.iter (fun base -> states := (base, idxs) :: !states) bases)
      in
      let states = Array.of_list (List.rev !states) in
      stats.crash_states <- stats.crash_states + Array.length states;
      let units (base, idxs) =
        List.merge
          (fun (a : Coalesce.t) (b : Coalesce.t) -> compare a.seq b.seq)
          base
          (List.map (fun i -> units_arr.(i)) idxs)
      in
      (* The crash context of the fingerprints found here, rendered at
         most once: a point whose states all hit the cache needs none. *)
      let context =
        lazy
          (Report.context ~during_syscall:(during_syscall p) ~after_syscall:p.after_syscall
             (fun i -> Report.first_word (Vfs.Syscall.to_string workload_arr.(i))))
      in
      let check probe =
        fingerprinted ~context:(Lazy.force context)
          (mount_and_check_with ~probe driver ~workload:calls ~oracle ~phase:p.phase replay)
      in
      (match program with
      | None ->
        Array.iter
          (fun s ->
            let verdicts = on_state (units s) (fun () -> check usability_probe) in
            emit p verdicts ~units:(fun () -> units s))
          states
      | Some (vc, prog) ->
        (* Step 1: the states' image digests. A crash point whose
           fence-prefix image and in-flight writes repeat an earlier
           point's has the same states, so the cache's memo serves them.
           (The read-set heuristic picks subsets by a probe mount, so it
           digests its states directly.) *)
        let digest_all () =
          Array.map (fun s -> on_state (units s) (fun () -> Image.digest replay)) states
        in
        let digests =
          if opts.read_set_heuristic then digest_all ()
          else begin
            let ds, reused = Vcache.point vc (point_key ~opts ~replay p) digest_all in
            if reused then stats.points_reused <- stats.points_reused + 1;
            ds
          end
        in
        (* Step 2: judging. A digest an earlier state of this point looked
           up (one point has one phase, so it repeats a whole cache key) is
           a dedup hit: that state built the same image and already
           reported, so emit nothing. Otherwise a verdict-cache hit replays
           the memoized kinds and fingerprints through [emit] with this
           occurrence's crash point, so finding sets are unchanged. Only a
           miss builds the state, and it must digest to its key. The
           probe's result is memoized per image digest. A key's phase id
           is the trie's, interned once per call prefix. *)
        let id = Vcache.phase prog p.phase in
        let looked_up = ref [] in
        Array.iteri
          (fun j s ->
            let digest = digests.(j) in
            if List.mem digest !looked_up then stats.dedup_hits <- stats.dedup_hits + 1
            else begin
              looked_up := digest :: !looked_up;
              let verdicts, hit =
                Vcache.verdict vc (id, digest) (fun () ->
                    on_state (units s) (fun () ->
                        let d = Image.digest replay in
                        if d <> digest then
                          failwith
                            (Printf.sprintf
                               "Harness: crash state looked up under digest %d digests to %d"
                               digest d);
                        check (fun h tree ->
                            let r, reused =
                              Vcache.probe vc digest (fun () -> usability_probe h tree)
                            in
                            if reused then stats.probes_reused <- stats.probes_reused + 1;
                            r)))
              in
              if hit then stats.vcache_hits <- stats.vcache_hits + 1;
              emit p verdicts ~units:(fun () -> units s)
            end)
          states);
      if skipped > 0 then begin
        stats.truncated_points <- stats.truncated_points + 1;
        (* Each base drops the same subsets. *)
        List.iter
          (fun _ -> stats.states_skipped <- add_saturating stats.states_skipped skipped)
          bases
      end
    end
  in
  walk ~opts ~replay trace check_point;
  let reports, fingerprints = List.split (List.rev !reports) in
  { reports; fingerprints; stats; trace; outcomes }

let replay_recorded ?(opts = default_opts) ?vcache (driver : Vfs.Driver.t) r =
  replay_phases ~opts ?vcache driver ~calls:r.rec_calls ~trace:r.rec_trace
    ~outcomes:r.rec_outcomes ~replay:(Image.snapshot r.rec_base)

let test_workload ?(opts = default_opts) ?vcache (driver : Vfs.Driver.t) calls =
  with_image_pair driver.Vfs.Driver.device_size (fun (cpu, replay) ->
      let r =
        record_on ~opts driver calls ~cpu ~base:(fun cpu ->
            Image.restore replay ~from:cpu;
            replay)
      in
      replay_phases ~opts ?vcache driver ~calls ~trace:r.rec_trace
        ~outcomes:r.rec_outcomes ~replay)
