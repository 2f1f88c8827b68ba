(* Collision regressions for the oracle's boundary tree digests: every
   [equal_node] field (plus nlink) must reach [Walker.digest], so phase trees
   differing only in that field key the verdict cache differently. *)

module Types = Vfs.Types
module Syscall = Vfs.Syscall
module Walker = Vfs.Walker
module Oracle = Chipmunk.Oracle
module Checker = Chipmunk.Checker
module Vcache = Chipmunk.Vcache

let d i = { Syscall.seed = i; len = 8 + (i mod 50) }

let reg path content =
  {
    Walker.path;
    kind = Some Types.Reg;
    size = String.length content;
    nlink = 1;
    content = Some content;
    entries = None;
    xattrs = [];
    error = None;
  }

let test_collision_nodes () =
  let base = reg "/f" "abc" in
  let differs what n =
    if Walker.digest [ base ] = Walker.digest [ n ] then
      Alcotest.failf "tree digest ignores %s" what
  in
  differs "xattrs" { base with xattrs = [ ("user.a", "1") ] };
  differs "nlink" { base with nlink = 2 };
  differs "error" { base with error = Some "stat: EIO" };
  differs "path" { base with path = "/g" };
  differs "content" { base with content = Some "abd" }

(* End-to-end: two workloads whose final trees differ only in xattr values
   (identical call text at the compared phase) digest differently. *)
let test_collision_xattr_phase () =
  let w v =
    [
      Syscall.Creat { path = "/f"; fd_var = 0 };
      Syscall.Close { fd_var = 0 };
      Syscall.Setxattr { path = "/f"; name = "user.k"; value = v };
      Syscall.Mkdir { path = "/d" };
    ]
  in
  let wa = w "1" and wb = w "2" in
  let oa = Oracle.run wa and ob = Oracle.run wb in
  let texts w = Array.of_list (List.map Syscall.to_string w) in
  (* The phase After 3 keys on the identical "mkdir /d" text plus the post
     tree, which differs only in the xattr value. *)
  Alcotest.(check string)
    "compared call text identical" (texts wa).(3) (texts wb).(3);
  if
    Vcache.phase_key oa ~text:(Array.get (texts wa)) (Checker.After 3)
    = Vcache.phase_key ob ~text:(Array.get (texts wb)) (Checker.After 3)
  then Alcotest.fail "phase key ignores xattr-only tree difference"

(* Two workloads converging on trees identical except for nlink: one file
   hard-linked twice vs two files with the same content, then the same
   last call. *)
let test_collision_nlink_phase () =
  let wa =
    [
      Syscall.Creat { path = "/f"; fd_var = 0 };
      Syscall.Write { fd_var = 0; data = d 20 };
      Syscall.Close { fd_var = 0 };
      Syscall.Link { src = "/f"; dst = "/g" };
      Syscall.Mkdir { path = "/d" };
    ]
  and wb =
    [
      Syscall.Creat { path = "/f"; fd_var = 0 };
      Syscall.Write { fd_var = 0; data = d 20 };
      Syscall.Close { fd_var = 0 };
      Syscall.Creat { path = "/g"; fd_var = 1 };
      Syscall.Write { fd_var = 1; data = d 20 };
      Syscall.Close { fd_var = 1 };
      Syscall.Mkdir { path = "/d" };
    ]
  in
  let oa = Oracle.run wa and ob = Oracle.run wb in
  let fa = Oracle.final oa and fb = Oracle.final ob in
  let content t p = Option.bind (Walker.find t p) (fun n -> n.Walker.content) in
  Alcotest.(check bool)
    "same content at /f and /g" true
    (content fa "/f" = content fb "/f" && content fa "/g" = content fb "/g");
  let last o = Oracle.n_calls o - 1 in
  if Oracle.post_digest oa (last oa) = Oracle.post_digest ob (last ob) then
    Alcotest.fail "tree digest ignores nlink-only difference";
  let texts w = Array.of_list (List.map Syscall.to_string w) in
  let key o w = Vcache.phase_key o ~text:(Array.get (texts w)) (Checker.After (last o)) in
  Alcotest.(check string)
    "compared call text identical" (texts wa).(last oa) (texts wb).(last ob);
  if key oa wa = key ob wb then Alcotest.fail "phase key ignores nlink-only tree difference"

let suite =
  [
    Alcotest.test_case "collisions: every equal_node field hashed" `Quick
      test_collision_nodes;
    Alcotest.test_case "collisions: xattr-only phase trees" `Quick
      test_collision_xattr_phase;
    Alcotest.test_case "collisions: nlink-only trees" `Quick
      test_collision_nlink_phase;
  ]
