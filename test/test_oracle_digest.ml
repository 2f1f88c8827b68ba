(* Collision regressions for the content digests. Every [equal_node] field
   (plus nlink) must reach [Walker.digest], so phase trees differing only in
   that field key the verdict cache differently. Both [Walker.digest] and
   [Pmem.Image.digest] sum per-part hashes, so a structured adversary that
   swaps equal-length runs between two parts at one offset must not make
   them cancel. *)

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

(* [u] and [v] with their [n]-byte runs at [off] swapped. *)
let swap_run u v off n =
  let part s = String.sub s off n in
  let splice s r = String.sub s 0 off ^ r ^ String.sub s (off + n) (String.length s - off - n) in
  (splice u (part v), splice v (part u))

let gen_run len =
  QCheck.Gen.(
    let* n = int_range 1 len in
    let* off = int_bound (len - n) in
    return (off, n))

(* Two cache lines of a zeroed image hold byte runs at one offset; the twin
   image holds them swapped. *)
let prop_image_line_swaps =
  let line = Pmem.Const.cache_line in
  let gen =
    QCheck.Gen.(
      let* l1 = int_bound 15 and* l2 = int_bound 15 in
      let* off, n = gen_run line in
      let* x = string_size ~gen:char (return n) and* y = string_size ~gen:char (return n) in
      return (l1, l2, off, x, y))
  in
  QCheck.Test.make ~name:"image digest: equal-offset run swaps between lines differ" ~count:2000
    (QCheck.make gen) (fun (l1, l2, off, x, y) ->
      QCheck.assume (l1 <> l2 && x <> y);
      let image a b =
        let t = Pmem.Image.create ~size:(16 * line) in
        Pmem.Image.write_string t ~off:((l1 * line) + off) a;
        Pmem.Image.write_string t ~off:((l2 * line) + off) b;
        t
      in
      Pmem.Image.digest (image x y) <> Pmem.Image.digest (image y x))

(* Two files whose equal-length names or contents swap a run at one offset. *)
let prop_tree_swaps =
  let gen =
    QCheck.Gen.(
      let* names = bool in
      let* len = int_range 1 (if names then 3 else 12) in
      let str = string_size ~gen:(if names then char_range 'a' 'z' else char) (return len) in
      let* u = str and* v = str and* other1 = str and* other2 = str in
      let* off, n = gen_run len in
      return (names, u, v, other1, other2, off, n))
  in
  QCheck.Test.make ~name:"tree digest: name and content run swaps between nodes differ"
    ~count:2000 (QCheck.make gen) (fun (names, u, v, other1, other2, off, n) ->
      let u', v' = swap_run u v off n in
      let tree u v =
        if names then [ reg ("/" ^ u) other1; reg ("/" ^ v) other2 ]
        else [ reg "/p" u; reg "/q" v ]
      in
      let a = tree u v and b = tree u' v' in
      let set t = List.sort compare (List.map (fun n -> (n.Walker.path, n.Walker.content)) t) in
      QCheck.assume ((not names) || (u <> v && u' <> v'));
      QCheck.assume (set a <> set b);
      Walker.digest a <> Walker.digest b)

(* ACE seq-3 workloads 44732 and 49062 differ only in which of [foo] and
   [bar] is created in /A first. On buggy NOVA their crash images at two
   fences differ by equal-offset swaps in two cache lines; before line hashes
   were finalized those images shared a digest, and the crash-point memo
   check aborted the second run. *)
let test_name_swap_workloads () =
  let w first second =
    [
      Syscall.Mkdir { path = "/A" };
      Syscall.Creat { path = "/A/" ^ first; fd_var = 0 };
      Syscall.Write { fd_var = 0; data = { Syscall.seed = 1001; len = 300 } };
      Syscall.Close { fd_var = 0 };
      Syscall.Rename { src = "/A/" ^ first; dst = "/foo" };
      Syscall.Mkdir { path = "/B" };
      Syscall.Rename { src = "/B"; dst = "/A" };
      Syscall.Creat { path = "/A/" ^ second; fd_var = 1 };
      Syscall.Write { fd_var = 1; data = { Syscall.seed = 1002; len = 300 } };
      Syscall.Close { fd_var = 1 };
      Syscall.Open
        { path = "/A/" ^ second; flags = [ Types.O_WRONLY; Types.O_APPEND ]; fd_var = 2 };
      Syscall.Write { fd_var = 2; data = { Syscall.seed = 1003; len = 150 } };
      Syscall.Close { fd_var = 2 };
    ]
  in
  let driver = Option.get (Catalog.buggy_driver "nova") () in
  let vcache = Vcache.create () in
  let fingerprints ?vcache w =
    List.map Chipmunk.Report.fingerprint
      (Chipmunk.Harness.test_workload ?vcache driver w).Chipmunk.Harness.reports
  in
  List.iter
    (fun w ->
      Alcotest.(check (list string))
        "one shared cache finds what an uncached run finds" (fingerprints w)
        (fingerprints ~vcache w))
    [ w "foo" "bar"; w "bar" "foo" ]

let suite =
  [
    Alcotest.test_case "collisions: every equal_node field hashed" `Quick
      test_collision_nodes;
    Alcotest.test_case "collisions: xattr-only phase trees" `Quick
      test_collision_xattr_phase;
    Alcotest.test_case "collisions: nlink-only trees" `Quick
      test_collision_nlink_phase;
    Alcotest.test_case "collisions: seq-3 name-swap workloads share a cache" `Quick
      test_name_swap_workloads;
    QCheck_alcotest.to_alcotest prop_image_line_swaps;
    QCheck_alcotest.to_alcotest prop_tree_swaps;
  ]
