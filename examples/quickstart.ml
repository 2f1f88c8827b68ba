(* Quickstart: create a PM file system on a simulated device, run a
   workload, and test every crash state Chipmunk can construct from it.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. Pick a file system under test. Drivers bundle mkfs + mount
        (recovery) + the crash-consistency contract to check against. *)
  let driver = Novafs.driver () in

  (* 2. Describe a workload: a sequence of POSIX calls. File descriptors
        are virtual registers ($0 below), bound when creat/open runs. *)
  let workload =
    [
      Vfs.Syscall.Mkdir { path = "/docs" };
      Vfs.Syscall.Creat { path = "/docs/notes.txt"; fd_var = 0 };
      Vfs.Syscall.Write { fd_var = 0; data = { seed = 42; len = 420 } };
      Vfs.Syscall.Close { fd_var = 0 };
      Vfs.Syscall.Rename { src = "/docs/notes.txt"; dst = "/docs/final.txt" };
    ]
  in

  (* 3. Run the record-and-replay pipeline: execute the workload on an
        instrumented instance, log its PM writes, then mount and check the
        file system on every crash state. *)
  let result = Chipmunk.Harness.test_workload driver workload in

  let stats = result.Chipmunk.Harness.stats in
  Printf.printf "file system:        %s\n" driver.Vfs.Driver.name;
  let fences = ref 0 in
  Persist.Trace.iter result.Chipmunk.Harness.trace (function
    | Persist.Trace.Fence -> incr fences
    | _ -> ());
  Printf.printf "store fences:       %d\n" !fences;
  Printf.printf "crash points:       %d\n" stats.Chipmunk.Harness.crash_points;
  Printf.printf "crash states:       %d\n" stats.Chipmunk.Harness.crash_states;
  Printf.printf "max in-flight:      %d coalesced writes\n" stats.Chipmunk.Harness.max_in_flight;
  (match result.Chipmunk.Harness.reports with
  | [] -> print_endline "verdict:            crash consistent (no bugs found)"
  | reports ->
    Printf.printf "verdict:            %d unique bug(s)!\n" (List.length reports);
    List.iter (fun r -> Format.printf "%a" Chipmunk.Report.pp r) reports);

  (* 4. The same pipeline on the same file system with one of the paper's
        bugs re-injected: rename invalidates the old directory entry in
        place before its journal transaction commits (paper bug 4). *)
  print_newline ();
  let buggy =
    Novafs.driver
      ~config:
        (Novafs.config
           ~bugs:{ Novafs.Bugs.none with bug4_inplace_dentry_invalidate = true }
           ())
      ()
  in
  let result = Chipmunk.Harness.test_workload buggy workload in
  match result.Chipmunk.Harness.reports with
  | [] -> print_endline "unexpected: injected bug not found"
  | r :: _ ->
    Printf.printf "with paper bug 4 injected: %s\n" (Chipmunk.Report.summary r)
