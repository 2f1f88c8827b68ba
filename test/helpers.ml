(* Shared test utilities: building file systems, running workloads on a
   target and the memfs oracle side by side, and comparing the results. *)

module Types = Vfs.Types
module Errno = Vfs.Errno
module Syscall = Vfs.Syscall

let nova_handle ?(config = Novafs.default_config) () =
  let image = Pmem.Image.create ~size:(config.Novafs.Layout.n_pages * config.Novafs.Layout.page_size) in
  let pm = Persist.Pm.create image in
  let driver = Novafs.driver ~config () in
  (driver.Vfs.Driver.mkfs pm, pm, driver)

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what (Errno.to_string e)

let check_err what expected = function
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" what
  | Error e ->
    Alcotest.(check string) what (Errno.to_string expected) (Errno.to_string e)

(* Run the same workload against a target handle and a fresh oracle; check
   that every syscall returns the same result class and that the final trees
   match. *)
let against_oracle ?(check_rets = true) (target : Vfs.Handle.t) calls =
  let oracle = Memfs.handle () in
  let target_out = Vfs.Workload.run target calls in
  let oracle_out = Vfs.Workload.run oracle calls in
  if check_rets then
    List.iter2
      (fun (t : Vfs.Workload.outcome) (o : Vfs.Workload.outcome) ->
        let norm (r : int) = if r >= 0 then `Ok else `Err (-r) in
        if norm t.ret <> norm o.ret then
          Alcotest.failf "syscall %d (%s): target ret %d, oracle ret %d" t.idx
            (Syscall.to_string t.call) t.ret o.ret)
      target_out oracle_out;
  let t_tree = Vfs.Walker.capture target in
  let o_tree = Vfs.Walker.capture oracle in
  let diffs = Vfs.Walker.diff ~expected:o_tree ~actual:t_tree in
  if diffs <> [] then
    Alcotest.failf "tree mismatch:\n%s" (String.concat "\n" diffs)

(* A deterministic pseudo-random workload generator used by conformance
   property tests. It tracks a model of live paths so that most generated
   calls are valid, with a sprinkling of invalid ones. *)
let random_workload ~rng ~len =
  let files = [| "/f0"; "/f1"; "/d0/f0"; "/d0/f1"; "/d1/f0" |] in
  let dirs = [| "/d0"; "/d1"; "/d0/sub" |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let calls = ref [] in
  let fd_counter = ref 0 in
  let open_fds = ref [] in
  for _ = 1 to len do
    let c =
      match Random.State.int rng 12 with
      | 0 ->
        let v = !fd_counter in
        incr fd_counter;
        open_fds := v :: !open_fds;
        Syscall.Creat { path = pick files; fd_var = v }
      | 1 -> Syscall.Mkdir { path = pick dirs }
      | 2 -> (
        match !open_fds with
        | [] -> Syscall.Mkdir { path = pick dirs }
        | v :: _ ->
          Syscall.Write
            { fd_var = v; data = { seed = Random.State.int rng 10000; len = 1 + Random.State.int rng 400 } })
      | 3 -> (
        match !open_fds with
        | [] -> Syscall.Unlink { path = pick files }
        | v :: _ ->
          Syscall.Pwrite
            {
              fd_var = v;
              off = Random.State.int rng 500;
              data = { seed = Random.State.int rng 10000; len = 1 + Random.State.int rng 300 };
            })
      | 4 -> Syscall.Link { src = pick files; dst = pick files }
      | 5 -> Syscall.Unlink { path = pick files }
      | 6 -> Syscall.Rename { src = pick files; dst = pick files }
      | 7 -> Syscall.Rename { src = pick dirs; dst = pick dirs }
      | 8 -> Syscall.Truncate { path = pick files; size = Random.State.int rng 600 }
      | 9 -> Syscall.Rmdir { path = pick dirs }
      | 10 -> (
        match !open_fds with
        | [] -> Syscall.Creat { path = pick files; fd_var = (incr fd_counter; !fd_counter - 1) }
        | v :: rest ->
          open_fds := rest;
          Syscall.Close { fd_var = v })
      | _ -> (
        match !open_fds with
        | [] -> Syscall.Mkdir { path = pick dirs }
        | v :: _ ->
          Syscall.Fallocate
            {
              fd_var = v;
              off = Random.State.int rng 400;
              len = 1 + Random.State.int rng 300;
              keep_size = Random.State.bool rng;
            })
    in
    calls := c :: !calls
  done;
  List.rev !calls

(* The first [execs] executions of [Fuzz.Fuzzer.run] at [seed] on buggy
   NOVA under the default fuzz config, replayed step by step: the programs
   in execution order, every report in the order the run collects them,
   and the summed crash states. The same corpus rule as the fuzzer (a
   program reaching new coverage joins at the next epoch boundary), so
   tests can check it against the run itself. *)
let fuzz_replica ~seed ~execs =
  let driver = Option.get (Catalog.buggy_driver "nova") () in
  let opts = Fuzz.Fuzzer.default_config.Fuzz.Fuzzer.exec.Chipmunk.Run.opts in
  let vcache = Chipmunk.Vcache.create () in
  let seen = Hashtbl.create 64 in
  let corpus = ref [||] and programs = ref [] and reports = ref [] and states = ref 0 in
  for epoch = 0 to (execs / Fuzz.Fuzzer.epoch_len) - 1 do
    let fresh = ref [] in
    for slot = 0 to Fuzz.Fuzzer.epoch_len - 1 do
      let w = Fuzz.Fuzzer.program ~rng_seed:seed ~epoch ~slot !corpus in
      let r, hits =
        Cov.collect (fun () -> Chipmunk.Harness.test_workload ~opts ~vcache driver w)
      in
      if List.exists (fun p -> not (Hashtbl.mem seen p)) hits then fresh := w :: !fresh;
      List.iter (fun p -> Hashtbl.replace seen p ()) hits;
      programs := w :: !programs;
      reports := List.rev_append r.Chipmunk.Harness.reports !reports;
      states := !states + r.Chipmunk.Harness.stats.Chipmunk.Harness.crash_states
    done;
    corpus := Array.append !corpus (Array.of_list (List.rev !fresh))
  done;
  (List.rev !programs, List.rev !reports, !states)

let fuzz_run ~seed ~execs =
  Fuzz.Fuzzer.run
    ~config:
      (Fuzz.Fuzzer.config ~rng_seed:seed
         ~budget:(Chipmunk.Run.budget ~max_execs:execs ~max_seconds:600.0 ())
         ())
    (Option.get (Catalog.buggy_driver "nova") ())
