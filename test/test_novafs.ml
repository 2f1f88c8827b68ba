(* NOVA tests: basic operation, remount/recovery fidelity, and conformance
   against the memfs oracle. *)

module Types = Vfs.Types
module Errno = Vfs.Errno

let ok = Helpers.check_ok

let test_mkfs_empty () =
  let h, _, _ = Helpers.nova_handle () in
  let tree = Vfs.Walker.capture h in
  Alcotest.(check int) "just root" 1 (List.length tree);
  Alcotest.(check (list string)) "no entries" []
    (List.map (fun d -> d.Types.d_name) (ok "readdir" (h.Vfs.Handle.readdir ~path:"/")))

let test_basic_ops_match_oracle () =
  let h, _, _ = Helpers.nova_handle () in
  Helpers.against_oracle h
    [
      Vfs.Syscall.Mkdir { path = "/d" };
      Vfs.Syscall.Creat { path = "/d/file"; fd_var = 0 };
      Vfs.Syscall.Write { fd_var = 0; data = { seed = 3; len = 300 } };
      Vfs.Syscall.Pwrite { fd_var = 0; off = 50; data = { seed = 4; len = 10 } };
      Vfs.Syscall.Link { src = "/d/file"; dst = "/hardlink" };
      Vfs.Syscall.Rename { src = "/d/file"; dst = "/renamed" };
      Vfs.Syscall.Truncate { path = "/renamed"; size = 123 };
      Vfs.Syscall.Fallocate { fd_var = 0; off = 200; len = 100; keep_size = false };
      Vfs.Syscall.Close { fd_var = 0 };
      Vfs.Syscall.Unlink { path = "/hardlink" };
    ]

let remount (pm : Persist.Pm.t) driver =
  match driver.Vfs.Driver.mount pm with
  | Ok h -> h
  | Error e -> Alcotest.failf "remount failed: %s" e

let test_remount_preserves_tree () =
  let h, pm, driver = Helpers.nova_handle () in
  let calls =
    [
      Vfs.Syscall.Mkdir { path = "/a" };
      Vfs.Syscall.Mkdir { path = "/a/b" };
      Vfs.Syscall.Creat { path = "/a/b/f"; fd_var = 0 };
      Vfs.Syscall.Write { fd_var = 0; data = { seed = 9; len = 500 } };
      Vfs.Syscall.Truncate { path = "/a/b/f"; size = 200 };
      Vfs.Syscall.Link { src = "/a/b/f"; dst = "/a/ln" };
      Vfs.Syscall.Close { fd_var = 0 };
    ]
  in
  let _ = Vfs.Workload.run h calls in
  let before = Vfs.Walker.capture h in
  let h2 = remount pm driver in
  let after = Vfs.Walker.capture h2 in
  let diffs = Vfs.Walker.diff ~expected:before ~actual:after in
  if diffs <> [] then Alcotest.failf "remount diverged:\n%s" (String.concat "\n" diffs)

let test_remount_after_rename_overwrite () =
  let h, pm, driver = Helpers.nova_handle () in
  let calls =
    [
      Vfs.Syscall.Creat { path = "/x"; fd_var = 0 };
      Vfs.Syscall.Write { fd_var = 0; data = { seed = 1; len = 100 } };
      Vfs.Syscall.Creat { path = "/y"; fd_var = 1 };
      Vfs.Syscall.Write { fd_var = 1; data = { seed = 2; len = 50 } };
      Vfs.Syscall.Close { fd_var = 0 };
      Vfs.Syscall.Close { fd_var = 1 };
      Vfs.Syscall.Rename { src = "/x"; dst = "/y" };
    ]
  in
  let _ = Vfs.Workload.run h calls in
  let before = Vfs.Walker.capture h in
  let after = Vfs.Walker.capture (remount pm driver) in
  let diffs = Vfs.Walker.diff ~expected:before ~actual:after in
  if diffs <> [] then Alcotest.failf "remount diverged:\n%s" (String.concat "\n" diffs)

let test_log_extension () =
  (* Enough entries in one directory to force log-page extension. *)
  let h, pm, driver = Helpers.nova_handle () in
  let calls =
    List.concat_map
      (fun i ->
        [ Vfs.Syscall.Creat { path = Printf.sprintf "/file%02d" i; fd_var = i } ])
      (List.init 12 Fun.id)
  in
  let out = Vfs.Workload.run h calls in
  List.iter
    (fun (o : Vfs.Workload.outcome) ->
      if o.Vfs.Workload.ret < 0 then
        Alcotest.failf "creat %d failed: %d" o.Vfs.Workload.idx o.Vfs.Workload.ret)
    out;
  let before = Vfs.Walker.capture h in
  let after = Vfs.Walker.capture (remount pm driver) in
  let diffs = Vfs.Walker.diff ~expected:before ~actual:after in
  if diffs <> [] then Alcotest.failf "remount diverged:\n%s" (String.concat "\n" diffs)

let test_orphan_reclaimed_at_mount () =
  let h, pm, driver = Helpers.nova_handle () in
  let calls =
    [
      Vfs.Syscall.Creat { path = "/f"; fd_var = 0 };
      Vfs.Syscall.Write { fd_var = 0; data = { seed = 5; len = 100 } };
      Vfs.Syscall.Unlink { path = "/f" } (* fd still open: orphan *);
    ]
  in
  let _ = Vfs.Workload.run h calls in
  let h2 = remount pm driver in
  let tree = Vfs.Walker.capture h2 in
  Alcotest.(check int) "only root survives" 1 (List.length tree)

let test_fortis_remount () =
  let config = Novafs.config ~fortis:true () in
  let h, pm, driver = Helpers.nova_handle ~config () in
  let calls =
    [
      Vfs.Syscall.Mkdir { path = "/d" };
      Vfs.Syscall.Creat { path = "/d/f"; fd_var = 0 };
      Vfs.Syscall.Write { fd_var = 0; data = { seed = 11; len = 260 } };
      Vfs.Syscall.Truncate { path = "/d/f"; size = 100 };
      Vfs.Syscall.Close { fd_var = 0 };
    ]
  in
  let _ = Vfs.Workload.run h calls in
  let before = Vfs.Walker.capture h in
  let after = Vfs.Walker.capture (remount pm driver) in
  let diffs = Vfs.Walker.diff ~expected:before ~actual:after in
  if diffs <> [] then Alcotest.failf "fortis remount diverged:\n%s" (String.concat "\n" diffs)

let test_enospc () =
  let config = Novafs.config ~n_pages:40 () in
  let h, _, _ = Helpers.nova_handle ~config () in
  let fd = ok "creat" (h.Vfs.Handle.creat ~path:"/big") in
  let rec fill i last =
    if i > 200 then last
    else
      match h.Vfs.Handle.write ~fd ~data:(String.make 128 'x') with
      | Ok _ -> fill (i + 1) `Ok
      | Error e -> `Err e
  in
  match fill 0 `Ok with
  | `Err Errno.ENOSPC -> ()
  | `Err e -> Alcotest.failf "expected ENOSPC, got %s" (Errno.to_string e)
  | `Ok -> Alcotest.fail "never ran out of space on a 40-page device"

let prop_random_workloads_match_oracle =
  QCheck.Test.make ~name:"nova matches oracle on random workloads" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let calls = Helpers.random_workload ~rng ~len:25 in
      let h, _, _ = Helpers.nova_handle () in
      (try Helpers.against_oracle h calls
       with Alcotest.Test_error -> QCheck.Test.fail_report "oracle divergence");
      true)

let prop_remount_is_identity =
  QCheck.Test.make ~name:"remount preserves the tree on random workloads" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let calls = Helpers.random_workload ~rng ~len:20 in
      let h, pm, driver = Helpers.nova_handle () in
      let _ = Vfs.Workload.run h calls in
      let before = Vfs.Walker.capture h in
      match driver.Vfs.Driver.mount pm with
      | Error e -> QCheck.Test.fail_report ("remount failed: " ^ e)
      | Ok h2 ->
        let after = Vfs.Walker.capture h2 in
        let diffs = Vfs.Walker.diff ~expected:before ~actual:after in
        if diffs <> [] then QCheck.Test.fail_report (String.concat "\n" diffs);
        true)

let suite =
  [
    Alcotest.test_case "mkfs empty tree" `Quick test_mkfs_empty;
    Alcotest.test_case "basic ops match oracle" `Quick test_basic_ops_match_oracle;
    Alcotest.test_case "remount preserves tree" `Quick test_remount_preserves_tree;
    Alcotest.test_case "remount after rename overwrite" `Quick test_remount_after_rename_overwrite;
    Alcotest.test_case "log extension survives remount" `Quick test_log_extension;
    Alcotest.test_case "orphan reclaimed at mount" `Quick test_orphan_reclaimed_at_mount;
    Alcotest.test_case "fortis remount" `Quick test_fortis_remount;
    Alcotest.test_case "ENOSPC on small device" `Quick test_enospc;
    QCheck_alcotest.to_alcotest prop_random_workloads_match_oracle;
    QCheck_alcotest.to_alcotest prop_remount_is_identity;
  ]

(* --- white-box: failed multi-append ops must roll the volatile tail back --- *)

let test_failed_rename_rolls_tail_back () =
  let config = Novafs.config ~n_pages:64 () in
  let lay = Novafs.Layout.v config in
  let image = Pmem.Image.create ~size:lay.Novafs.Layout.size in
  let pm = Persist.Pm.create image in
  let t = Novafs.Fs.mkfs pm config in
  (* A few files so the root log has content and little page space left. *)
  let rec creat_some i =
    if i < 4 then (
      match Novafs.Fs.create t ~dir:0 ~name:(Printf.sprintf "file%d" i) with
      | Ok _ -> creat_some (i + 1)
      | Error _ -> ())
  in
  creat_some 0;
  (* Exhaust the allocator so any log extension fails. *)
  let alloc = t.Novafs.Fs.alloc in
  let rec drain () = match Blockalloc.alloc alloc with Ok _ -> drain () | Error _ -> () in
  drain ();
  let root = Result.get_ok (Novafs.Fs.getattr t ~ino:0) in
  ignore root;
  let media_tail () = Persist.Pm.read_u64 pm ~off:(Novafs.Layout.inode_off lay 0 + Novafs.Layout.i_tail) in
  let dram_tail () = (Hashtbl.find t.Novafs.Fs.inodes 0).Novafs.Fs.tail in
  Alcotest.(check int) "tails agree before" (media_tail ()) (dram_tail ());
  (* Rename to a long new name: appends a delete entry, then needs space
     for the add entry; with the allocator drained the extension fails. *)
  let rec try_renames i =
    if i >= 4 then None
    else
      match
        Novafs.Fs.rename t ~odir:0
          ~oname:(Printf.sprintf "file%d" i)
          ~ndir:0 ~nname:(Printf.sprintf "renamed-long-name-%d" i)
      with
      | Error e -> Some e
      | Ok () -> try_renames (i + 1)
  in
  match try_renames 0 with
  | None -> Alcotest.fail "no rename hit ENOSPC; test setup too roomy"
  | Some e ->
    Alcotest.(check string) "fails with ENOSPC" "ENOSPC" (Vfs.Errno.to_string e);
    (* The crucial invariant: the volatile tail was rolled back, so the
       orphaned delete entry can never be published by a later commit. *)
    Alcotest.(check int) "tails agree after failed rename" (media_tail ()) (dram_tail ())

(* --- hostile image: a log page whose lp_next loops back into the chain --- *)

let test_cyclic_log_chain_rejected () =
  let config = Novafs.config ~n_pages:64 () in
  let lay = Novafs.Layout.v config in
  let image = Pmem.Image.create ~size:lay.Novafs.Layout.size in
  let pm = Persist.Pm.create image in
  let t = Novafs.Fs.mkfs pm config in
  ignore (Novafs.Fs.create t ~dir:0 ~name:"a");
  let slot = Novafs.Layout.inode_off lay 0 in
  let head = Persist.Pm.read_u32 pm ~off:(slot + Novafs.Layout.i_log_head) in
  let head_off = Novafs.Layout.page_off lay head in
  (* The root's head page links to itself, and the tail sits inside the
     page header, where no entry boundary can ever reach it. *)
  Pmem.Image.write_u32 image ~off:(head_off + Novafs.Layout.lp_next) head;
  Pmem.Image.write_u64 image ~off:(slot + Novafs.Layout.i_tail) (head_off + 1);
  match Novafs.Fs.mount pm config with
  | Ok _ -> Alcotest.fail "mounted an image whose log chain cycles"
  | Error e -> Alcotest.(check string) "cycle reported" "nova: inode 0 log chain cycles" e

let suite =
  suite
  @ [
      Alcotest.test_case "failed rename rolls the tail back" `Quick
        test_failed_rename_rolls_tail_back;
      Alcotest.test_case "cyclic log chain fails the mount" `Quick
        test_cyclic_log_chain_rejected;
    ]
