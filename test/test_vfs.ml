(* Tests for path handling and the POSIX layer (exercised over memfs). *)

module Types = Vfs.Types
module Errno = Vfs.Errno
module Path = Vfs.Path

let ok = Helpers.check_ok
let err = Helpers.check_err

let test_path_split () =
  let show = function
    | Ok parts -> "ok:" ^ String.concat "," parts
    | Error e -> "err:" ^ Errno.to_string e
  in
  Alcotest.(check string) "simple" "ok:a,b" (show (Path.split "/a/b"));
  Alcotest.(check string) "root" "ok:" (show (Path.split "/"));
  Alcotest.(check string) "dup slashes" "ok:a,b" (show (Path.split "//a///b/"));
  Alcotest.(check string) "dot" "ok:a,b" (show (Path.split "/a/./b"));
  Alcotest.(check string) "dotdot" "ok:b" (show (Path.split "/a/../b"));
  Alcotest.(check string) "dotdot at root" "ok:a" (show (Path.split "/../a"));
  Alcotest.(check string) "relative" "err:ENOENT" (show (Path.split "a/b"));
  Alcotest.(check string) "empty" "err:ENOENT" (show (Path.split ""))

let test_path_parent () =
  (match Path.split_parent "/a/b/c" with
  | Ok (parents, name) ->
    Alcotest.(check (list string)) "parents" [ "a"; "b" ] parents;
    Alcotest.(check string) "name" "c" name
  | Error _ -> Alcotest.fail "split_parent");
  (match Path.split_parent "/" with
  | Error Errno.EINVAL -> ()
  | _ -> Alcotest.fail "root has no parent");
  Alcotest.(check string) "basename" "c" (Path.basename "/a/b/c");
  Alcotest.(check string) "concat at root" "/x" (Path.concat "/" "x");
  Alcotest.(check string) "concat nested" "/a/x" (Path.concat "/a" "x")

let h () = Memfs.handle ()

let test_creat_stat () =
  let h = h () in
  let fd = ok "creat" (h.Vfs.Handle.creat ~path:"/foo") in
  let st = ok "fstat" (h.Vfs.Handle.fstat ~fd) in
  Alcotest.(check int) "size 0" 0 st.Types.st_size;
  Alcotest.(check int) "nlink 1" 1 st.Types.st_nlink;
  err "creat in missing dir" Errno.ENOENT (h.Vfs.Handle.creat ~path:"/nodir/foo")

let test_write_read () =
  let h = h () in
  let fd = ok "creat" (h.Vfs.Handle.creat ~path:"/foo") in
  let n = ok "write" (h.Vfs.Handle.write ~fd ~data:"hello world") in
  Alcotest.(check int) "wrote all" 11 n;
  let fd2 = ok "open" (h.Vfs.Handle.open_ ~path:"/foo" ~flags:[ Types.O_RDONLY ]) in
  Alcotest.(check string) "read back" "hello world" (ok "read" (h.Vfs.Handle.read ~fd:fd2 ~len:100));
  Alcotest.(check string) "pread mid" "world" (ok "pread" (h.Vfs.Handle.pread ~fd:fd2 ~off:6 ~len:5));
  err "write on rdonly" Errno.EBADF (h.Vfs.Handle.write ~fd:fd2 ~data:"x");
  (* Sparse write creates a zero-filled hole. *)
  let _ = ok "pwrite sparse" (h.Vfs.Handle.pwrite ~fd ~off:20 ~data:"end") in
  let content = ok "read_file" (h.Vfs.Handle.read_file ~path:"/foo") in
  Alcotest.(check int) "size with hole" 23 (String.length content);
  Alcotest.(check char) "hole is zero" '\000' content.[15]

let test_append_and_seek () =
  let h = h () in
  let fd = ok "creat" (h.Vfs.Handle.creat ~path:"/log") in
  let _ = ok "w1" (h.Vfs.Handle.write ~fd ~data:"aaa") in
  let _ = ok "w2" (h.Vfs.Handle.write ~fd ~data:"bbb") in
  Alcotest.(check string) "sequential writes" "aaabbb"
    (ok "read_file" (h.Vfs.Handle.read_file ~path:"/log"));
  let fda = ok "open append" (h.Vfs.Handle.open_ ~path:"/log" ~flags:[ Types.O_WRONLY; Types.O_APPEND ]) in
  let _ = ok "pos0" (h.Vfs.Handle.lseek ~fd:fda ~off:0 ~whence:Types.SEEK_SET) in
  let _ = ok "append" (h.Vfs.Handle.write ~fd:fda ~data:"ccc") in
  Alcotest.(check string) "O_APPEND ignores offset" "aaabbbccc"
    (ok "read_file" (h.Vfs.Handle.read_file ~path:"/log"));
  let pos = ok "seek end" (h.Vfs.Handle.lseek ~fd:fda ~off:(-3) ~whence:Types.SEEK_END) in
  Alcotest.(check int) "SEEK_END" 6 pos

let test_mkdir_tree () =
  let h = h () in
  ok "mkdir /a" (h.Vfs.Handle.mkdir ~path:"/a");
  ok "mkdir /a/b" (h.Vfs.Handle.mkdir ~path:"/a/b");
  err "mkdir exists" Errno.EEXIST (h.Vfs.Handle.mkdir ~path:"/a");
  err "mkdir under file" Errno.ENOENT (h.Vfs.Handle.mkdir ~path:"/nope/x");
  let _ = ok "creat nested" (h.Vfs.Handle.creat ~path:"/a/b/f") in
  let entries = ok "readdir" (h.Vfs.Handle.readdir ~path:"/a") in
  Alcotest.(check (list string)) "entries" [ "b" ] (List.map (fun d -> d.Types.d_name) entries);
  let st = ok "stat /a" (h.Vfs.Handle.stat ~path:"/a") in
  Alcotest.(check int) "dir nlink 2+subdirs" 3 st.Types.st_nlink;
  err "rmdir nonempty" Errno.ENOTEMPTY (h.Vfs.Handle.rmdir ~path:"/a/b");
  ok "unlink file" (h.Vfs.Handle.unlink ~path:"/a/b/f");
  ok "rmdir" (h.Vfs.Handle.rmdir ~path:"/a/b");
  err "rmdir file" Errno.ENOENT (h.Vfs.Handle.rmdir ~path:"/a/b")

let test_link_unlink () =
  let h = h () in
  let fd = ok "creat" (h.Vfs.Handle.creat ~path:"/f") in
  let _ = ok "write" (h.Vfs.Handle.write ~fd ~data:"data") in
  ok "link" (h.Vfs.Handle.link ~src:"/f" ~dst:"/g");
  let st = ok "stat" (h.Vfs.Handle.stat ~path:"/g") in
  Alcotest.(check int) "nlink 2" 2 st.Types.st_nlink;
  Alcotest.(check string) "same content" "data" (ok "read g" (h.Vfs.Handle.read_file ~path:"/g"));
  err "link existing dst" Errno.EEXIST (h.Vfs.Handle.link ~src:"/f" ~dst:"/g");
  ok "mkdir" (h.Vfs.Handle.mkdir ~path:"/d");
  err "link dir" Errno.EPERM (h.Vfs.Handle.link ~src:"/d" ~dst:"/d2");
  ok "unlink f" (h.Vfs.Handle.unlink ~path:"/f");
  let st = ok "stat g after unlink" (h.Vfs.Handle.stat ~path:"/g") in
  Alcotest.(check int) "nlink back to 1" 1 st.Types.st_nlink;
  err "unlink dir" Errno.EISDIR (h.Vfs.Handle.unlink ~path:"/d")

let test_rename () =
  let h = h () in
  let fd = ok "creat" (h.Vfs.Handle.creat ~path:"/old") in
  let _ = ok "write" (h.Vfs.Handle.write ~fd ~data:"payload") in
  ok "rename" (h.Vfs.Handle.rename ~src:"/old" ~dst:"/new");
  err "old gone" Errno.ENOENT (h.Vfs.Handle.stat ~path:"/old");
  Alcotest.(check string) "content moved" "payload" (ok "read" (h.Vfs.Handle.read_file ~path:"/new"));
  (* Overwriting rename. *)
  let fd2 = ok "creat2" (h.Vfs.Handle.creat ~path:"/other") in
  let _ = ok "write2" (h.Vfs.Handle.write ~fd:fd2 ~data:"loser") in
  ok "rename overwrite" (h.Vfs.Handle.rename ~src:"/new" ~dst:"/other");
  Alcotest.(check string) "winner content" "payload"
    (ok "read winner" (h.Vfs.Handle.read_file ~path:"/other"));
  (* Directory renames. *)
  ok "mkdir /d1" (h.Vfs.Handle.mkdir ~path:"/d1");
  ok "mkdir /d2" (h.Vfs.Handle.mkdir ~path:"/d2");
  ok "mkdir /d1/sub" (h.Vfs.Handle.mkdir ~path:"/d1/sub");
  err "dir onto nonempty dir" Errno.ENOTEMPTY (h.Vfs.Handle.rename ~src:"/d2" ~dst:"/d1");
  err "dir into own subtree" Errno.EINVAL (h.Vfs.Handle.rename ~src:"/d1" ~dst:"/d1/sub/x");
  ok "dir onto empty dir" (h.Vfs.Handle.rename ~src:"/d1/sub" ~dst:"/d2");
  err "file onto dir" Errno.EISDIR (h.Vfs.Handle.rename ~src:"/other" ~dst:"/d2");
  ok "rename to self" (h.Vfs.Handle.rename ~src:"/other" ~dst:"/other");
  (* Renaming onto a hard link of the same inode is a no-op. *)
  ok "link" (h.Vfs.Handle.link ~src:"/other" ~dst:"/alias");
  ok "rename onto alias" (h.Vfs.Handle.rename ~src:"/other" ~dst:"/alias");
  Alcotest.(check bool) "both names remain" true
    (Result.is_ok (h.Vfs.Handle.stat ~path:"/other") && Result.is_ok (h.Vfs.Handle.stat ~path:"/alias"))

let test_truncate_fallocate () =
  let h = h () in
  let fd = ok "creat" (h.Vfs.Handle.creat ~path:"/f") in
  let _ = ok "write" (h.Vfs.Handle.write ~fd ~data:"0123456789") in
  ok "shrink" (h.Vfs.Handle.truncate ~path:"/f" ~size:4);
  Alcotest.(check string) "shrunk" "0123" (ok "read" (h.Vfs.Handle.read_file ~path:"/f"));
  ok "extend" (h.Vfs.Handle.truncate ~path:"/f" ~size:8);
  Alcotest.(check string) "zero filled" "0123\000\000\000\000"
    (ok "read" (h.Vfs.Handle.read_file ~path:"/f"));
  ok "fallocate keep" (h.Vfs.Handle.fallocate ~fd ~off:0 ~len:100 ~keep_size:true);
  Alcotest.(check int) "size kept" 8
    (ok "stat" (h.Vfs.Handle.stat ~path:"/f")).Types.st_size;
  ok "fallocate grow" (h.Vfs.Handle.fallocate ~fd ~off:10 ~len:10 ~keep_size:false);
  Alcotest.(check int) "size grown" 20
    (ok "stat" (h.Vfs.Handle.stat ~path:"/f")).Types.st_size;
  err "truncate dir" Errno.EISDIR (h.Vfs.Handle.truncate ~path:"/" ~size:0);
  err "negative" Errno.EINVAL (h.Vfs.Handle.truncate ~path:"/f" ~size:(-1))

let test_orphan_file () =
  let h = h () in
  let fd = ok "creat" (h.Vfs.Handle.creat ~path:"/doomed") in
  let _ = ok "write" (h.Vfs.Handle.write ~fd ~data:"still here") in
  ok "unlink while open" (h.Vfs.Handle.unlink ~path:"/doomed");
  err "name gone" Errno.ENOENT (h.Vfs.Handle.stat ~path:"/doomed");
  let st = ok "fstat orphan" (h.Vfs.Handle.fstat ~fd) in
  Alcotest.(check int) "nlink 0" 0 st.Types.st_nlink;
  let _ = ok "write orphan" (h.Vfs.Handle.write ~fd ~data:"!") in
  ok "close reclaims" (h.Vfs.Handle.close ~fd)

let test_open_flags () =
  let h = h () in
  let fd = ok "o_creat" (h.Vfs.Handle.open_ ~path:"/f" ~flags:[ Types.O_RDWR; Types.O_CREAT ]) in
  let _ = ok "w" (h.Vfs.Handle.write ~fd ~data:"xyz") in
  err "o_excl on existing" Errno.EEXIST
    (h.Vfs.Handle.open_ ~path:"/f" ~flags:[ Types.O_CREAT; Types.O_EXCL ]);
  let _ = ok "o_trunc" (h.Vfs.Handle.open_ ~path:"/f" ~flags:[ Types.O_WRONLY; Types.O_TRUNC ]) in
  Alcotest.(check int) "truncated" 0 (ok "stat" (h.Vfs.Handle.stat ~path:"/f")).Types.st_size;
  err "open missing" Errno.ENOENT (h.Vfs.Handle.open_ ~path:"/missing" ~flags:[ Types.O_RDONLY ]);
  err "write dir" Errno.EISDIR (h.Vfs.Handle.open_ ~path:"/" ~flags:[ Types.O_WRONLY ]);
  err "bad fd" Errno.EBADF (h.Vfs.Handle.close ~fd:999)

let test_remove () =
  let h = h () in
  let _ = ok "creat" (h.Vfs.Handle.creat ~path:"/f") in
  ok "mkdir" (h.Vfs.Handle.mkdir ~path:"/d");
  ok "remove file" (h.Vfs.Handle.remove ~path:"/f");
  ok "remove dir" (h.Vfs.Handle.remove ~path:"/d");
  err "remove missing" Errno.ENOENT (h.Vfs.Handle.remove ~path:"/f")

let test_name_validation () =
  let h = h () in
  err "280-char name" Errno.ENAMETOOLONG (h.Vfs.Handle.mkdir ~path:("/" ^ String.make 280 'a'))

let test_walker_capture_diff () =
  let h = h () in
  ok "mkdir" (h.Vfs.Handle.mkdir ~path:"/d");
  let fd = ok "creat" (h.Vfs.Handle.creat ~path:"/d/f") in
  let _ = ok "write" (h.Vfs.Handle.write ~fd ~data:"abc") in
  let t1 = Vfs.Walker.capture h in
  Alcotest.(check int) "three nodes" 3 (List.length t1);
  Alcotest.(check bool) "self equal" true (Vfs.Walker.equal t1 t1);
  let _ = ok "write more" (h.Vfs.Handle.write ~fd ~data:"def") in
  let t2 = Vfs.Walker.capture h in
  Alcotest.(check bool) "diverged" false (Vfs.Walker.equal t1 t2);
  let diffs = Vfs.Walker.diff ~expected:t1 ~actual:t2 in
  Alcotest.(check int) "one mismatch" 1 (List.length diffs)

let test_workload_executor () =
  let h = h () in
  let calls =
    [
      Vfs.Syscall.Mkdir { path = "/d" };
      Vfs.Syscall.Creat { path = "/d/f"; fd_var = 0 };
      Vfs.Syscall.Write { fd_var = 0; data = { seed = 42; len = 10 } };
      Vfs.Syscall.Close { fd_var = 0 };
      Vfs.Syscall.Write { fd_var = 0; data = { seed = 1; len = 1 } };
      (* closed: EBADF *)
      Vfs.Syscall.Unlink { path = "/missing" };
    ]
  in
  let out = Vfs.Workload.run h calls in
  let rets = List.map (fun (o : Vfs.Workload.outcome) -> o.Vfs.Workload.ret) out in
  Alcotest.(check (list int)) "returns"
    [ 0; 3; 10; 0; -Errno.to_code Errno.EBADF; -Errno.to_code Errno.ENOENT ]
    rets;
  Alcotest.(check int) "file written" 10
    (ok "stat" (h.Vfs.Handle.stat ~path:"/d/f")).Types.st_size

let test_deterministic_payload () =
  let a = Vfs.Syscall.bytes { seed = 7; len = 32 } in
  let b = Vfs.Syscall.bytes { seed = 7; len = 32 } in
  let c = Vfs.Syscall.bytes { seed = 8; len = 32 } in
  Alcotest.(check string) "same seed same bytes" a b;
  Alcotest.(check bool) "different seed differs" false (a = c)

(* Payloads are part of every recorded trace and reproducer: pin them. The
   4096-byte one is pinned by its first bytes, last bytes and MD5. *)
let test_golden_payload () =
  let b seed len = Vfs.Syscall.bytes { seed; len } in
  Alcotest.(check string) "seed 0, len 0" "" (b 0 0);
  Alcotest.(check string) "seed 1, len 7" "bdlbzpn" (b 1 7);
  let big = b 42 4096 in
  Alcotest.(check int) "seed 42 length" 4096 (String.length big);
  Alcotest.(check string) "seed 42 head"
    "szkwutbyotomlnlkiobqteqclnhtpwjkvmtzayquvlgrjdmybzznqrzdmoibfgcz" (String.sub big 0 64);
  Alcotest.(check string) "seed 42 tail" "poktwxhqablnxzki" (String.sub big 4080 16);
  Alcotest.(check string) "seed 42 md5" "3b9f6888ad6281a4fa5e90a6adad0da4"
    (Digest.to_hex (Digest.string big))

let suite =
  [
    Alcotest.test_case "path split" `Quick test_path_split;
    Alcotest.test_case "path parent/basename" `Quick test_path_parent;
    Alcotest.test_case "creat and stat" `Quick test_creat_stat;
    Alcotest.test_case "write/read/pread holes" `Quick test_write_read;
    Alcotest.test_case "append and lseek" `Quick test_append_and_seek;
    Alcotest.test_case "mkdir tree and rmdir" `Quick test_mkdir_tree;
    Alcotest.test_case "link and unlink" `Quick test_link_unlink;
    Alcotest.test_case "rename semantics" `Quick test_rename;
    Alcotest.test_case "truncate and fallocate" `Quick test_truncate_fallocate;
    Alcotest.test_case "orphan files stay writable" `Quick test_orphan_file;
    Alcotest.test_case "open flags" `Quick test_open_flags;
    Alcotest.test_case "remove dispatches by kind" `Quick test_remove;
    Alcotest.test_case "name validation" `Quick test_name_validation;
    Alcotest.test_case "walker capture and diff" `Quick test_walker_capture_diff;
    Alcotest.test_case "workload executor" `Quick test_workload_executor;
    Alcotest.test_case "deterministic payloads" `Quick test_deterministic_payload;
    Alcotest.test_case "golden payloads" `Quick test_golden_payload;
  ]

(* --- workload serialization --- *)

let sample_workload =
  [
    Vfs.Syscall.Mkdir { path = "/d" };
    Vfs.Syscall.Creat { path = "/d/f"; fd_var = 0 };
    Vfs.Syscall.Open { path = "/d/f"; flags = [ Types.O_RDWR; Types.O_APPEND ]; fd_var = 1 };
    Vfs.Syscall.Write { fd_var = 1; data = { seed = 42; len = 420 } };
    Vfs.Syscall.Pwrite { fd_var = 1; off = 17; data = { seed = 7; len = 33 } };
    Vfs.Syscall.Read { fd_var = 1; len = 64 };
    Vfs.Syscall.Lseek { fd_var = 1; off = -3; whence = Types.SEEK_END };
    Vfs.Syscall.Link { src = "/d/f"; dst = "/g" };
    Vfs.Syscall.Rename { src = "/g"; dst = "/h" };
    Vfs.Syscall.Truncate { path = "/h"; size = 100 };
    Vfs.Syscall.Fallocate { fd_var = 1; off = 5; len = 50; keep_size = true };
    Vfs.Syscall.Fsync { fd_var = 1 };
    Vfs.Syscall.Fdatasync { fd_var = 1 };
    Vfs.Syscall.Close { fd_var = 1 };
    Vfs.Syscall.Setxattr { path = "/h"; name = "user.k"; value = "v1" };
    Vfs.Syscall.Removexattr { path = "/h"; name = "user.k" };
    Vfs.Syscall.Unlink { path = "/h" };
    Vfs.Syscall.Remove { path = "/d/f" };
    Vfs.Syscall.Rmdir { path = "/d" };
    Vfs.Syscall.Sync;
  ]

let test_workload_io_roundtrip () =
  let text = Vfs.Workload_io.to_string sample_workload in
  match Vfs.Workload_io.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok parsed ->
    Alcotest.(check bool) "roundtrip preserves every call" true (parsed = sample_workload)

let test_workload_io_errors () =
  let bad l =
    match Vfs.Workload_io.of_string l with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted garbage: %s" l
  in
  bad "explode /f";
  bad "creat /f notanumber";
  bad "write 0 seed=x len=1";
  bad "open /f O_BOGUS 0";
  bad "write 0 seed=1 len=-5";
  bad "pwrite 0 off=0 seed=1 len=-1";
  bad "creat /foo 0\npwrite 0 off=4611686018427387000 seed=1 len=10\nclose 0";
  bad "creat /foo 0\ntruncate /foo size=4611686018427387000\nclose 0";
  (match Vfs.Workload_io.of_string "# only comments\n\n" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "comments/blank lines should parse to empty")

let test_workload_io_file_roundtrip () =
  let path = Filename.temp_file "chipmunk" ".workload" in
  Vfs.Workload_io.save ~path sample_workload;
  (match Vfs.Workload_io.load ~path with
  | Ok parsed -> Alcotest.(check bool) "file roundtrip" true (parsed = sample_workload)
  | Error e -> Alcotest.failf "load: %s" e);
  Sys.remove path

let suite =
  suite
  @ [
      Alcotest.test_case "workload serialization roundtrip" `Quick test_workload_io_roundtrip;
      Alcotest.test_case "workload parser rejects garbage" `Quick test_workload_io_errors;
      Alcotest.test_case "workload file save/load" `Quick test_workload_io_file_roundtrip;
    ]
