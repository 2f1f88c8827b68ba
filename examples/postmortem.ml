(* Post-mortem workflow: a bug report carries enough detail to rebuild the
   exact crash state it describes (paper Figure 1). This example finds a
   bug, re-derives the crash image from the report plus the harness opts it
   was found under (the defaults here), mounts it, and inspects the damage
   down to the device bytes.

   Run with:  dune exec examples/postmortem.exe *)

let () =
  (* Find a bug: NOVA with the paper's bug 4 armed. *)
  let driver =
    Novafs.driver
      ~config:
        (Novafs.config
           ~bugs:{ Novafs.Bugs.none with bug4_inplace_dentry_invalidate = true }
           ())
      ()
  in
  let workload =
    [
      Vfs.Syscall.Creat { path = "/precious"; fd_var = 0 };
      Vfs.Syscall.Write { fd_var = 0; data = { seed = 77; len = 160 } };
      Vfs.Syscall.Close { fd_var = 0 };
      Vfs.Syscall.Rename { src = "/precious"; dst = "/safe" };
    ]
  in
  let result = Chipmunk.Harness.test_workload driver workload in
  let report =
    match result.Chipmunk.Harness.reports with
    | r :: _ -> r
    | [] -> failwith "expected a finding"
  in
  print_endline "--- the report, as a developer would receive it ---";
  Format.printf "%a@." Chipmunk.Report.pp report;

  (* Rebuild the crash state from the report; [~opts] would name the
     harness opts had the finding come from non-default ones. *)
  print_endline "--- post-mortem: rebuilding the crash state ---";
  (match Chipmunk.Reproduce.crash_state driver report with
  | Error e -> Printf.printf "cannot rebuild: %s\n" e
  | Ok cs ->
    Printf.printf "does the finding reproduce? %b\n"
      (cs.Chipmunk.Reproduce.check () <> []);
    (match cs.Chipmunk.Reproduce.mount () with
    | Error e -> Printf.printf "crash state does not mount: %s\n" e
    | Ok h ->
      print_endline "recovered tree of the crash state:";
      Format.printf "%a" Vfs.Walker.pp (Vfs.Walker.capture h);
      print_endline "(both /precious and /safe are gone: the rename lost the file)");
    (* Drop to the device bytes: the first lines of the inode table. *)
    print_endline "inode table bytes of the crash image:";
    print_string
      (Pmem.Image.hexdump ~off:128 ~len:64 cs.Chipmunk.Reproduce.image));

  (* The same report does not reproduce on the fixed file system. *)
  let fixed = Novafs.driver () in
  Printf.printf "reproduces on fixed NOVA? %b\n" (Chipmunk.Reproduce.verify fixed report)
