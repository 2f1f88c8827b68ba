(* Campaign-wide verdict cache.

   The checker's verdict for a crash state depends only on (a) the crash
   image bytes — which determine the mounted tree, (b) the crash phase's
   oracle slice (the rendered syscall plus the pre/post trees it is compared
   against, or the fsync target for weak systems), and (c) the driver that
   mounts and judges it (its recovery code and its atomic_data / consistency
   contract). A cache serves one driver instance, so (c) is fixed per cache
   and the key is (oracle-slice digest, image digest). It does NOT depend on
   which workload or crash point produced the state, so verdicts are shared
   across crash points and across workloads: ACE workload families share long
   syscall prefixes, so whole mount+check rounds repeat campaign-wide.

   Each entry also remembers the crash point that last touched it: a repeat
   at one crash point repeats the whole key (one point has one phase), so
   the cache doubles as the per-point dedup table.

   The cache also holds a trie of the call prefixes the campaign has run.
   A prefix determines its oracle boundaries and the phase keys of its
   calls, so a program re-derives only what its new suffix adds. The trie
   memoizes how a phase key is rendered; the key is still its content. *)

type entry = { verdicts : Report.verdict list; mutable last_point : int }

type ckey = string * int
(* (phase digest, image digest): structural key, so the hot path never
   renders the image digest to hex or concatenates per state — the string
   half is shared across every state of a phase. *)

(* One node per distinct call prefix the campaign has run: everything the
   oracle and the phase keys derive from that prefix. The root stands for
   the empty prefix; its call fields are unused. *)
type node = {
  text : string;  (* [Vfs.Syscall.to_string] of the prefix's last call *)
  tree : Vfs.Walker.tree;  (* the oracle boundary after that call *)
  digest : int;
  target : string option;
  ret : int;
  during_key : string;  (* [phase_digest] of [During] and [After] that call *)
  after_key : string;
  children : (Vfs.Syscall.t, node) Hashtbl.t;
}

type t = {
  mutex : Mutex.t;
  table : (ckey, entry) Hashtbl.t;
  trie_lock : Mutex.t;
  root : node;
  initial_key : string;
}

(* --- keys --- *)

let call_text calls i = if i < Array.length calls then calls.(i) else "?"

(* Everything the checker reads from the oracle/workload at this phase, and
   nothing more: notably NOT the syscall index itself, so equivalent phases
   of different workloads (shared ACE-family prefixes) share cache lines.
   The tree component is the oracle's boundary digest, so it is O(1) here.
   Call texts are length-prefixed so a pathological syscall rendering
   cannot straddle a separator. *)
let len_prefixed s = Printf.sprintf "%d\002%s" (String.length s) s
let initial_key d = Printf.sprintf "I\001%x" d

let during_key ~text ~pre ~post =
  Printf.sprintf "D\001%s\001%x\001%x" (len_prefixed text) pre post

let after_key ~text ~target ~post =
  let tgt = match target with None -> "-" | Some p -> len_prefixed p in
  Printf.sprintf "A\001%s\001%s\001%x" (len_prefixed text) tgt post

let phase_digest oracle ~calls (phase : Checker.phase) =
  match phase with
  | Checker.Initial -> initial_key (Oracle.pre_digest oracle 0)
  | Checker.During i ->
    during_key ~text:(call_text calls i) ~pre:(Oracle.pre_digest oracle i)
      ~post:(Oracle.post_digest oracle i)
  | Checker.After i ->
    after_key ~text:(call_text calls i) ~target:(Oracle.target oracle i)
      ~post:(Oracle.post_digest oracle i)

let key ~phase_digest ~image_digest : ckey = (phase_digest, image_digest)

(* --- the cache --- *)

let create () =
  let empty = Oracle.run [] in
  let digest = Oracle.pre_digest empty 0 in
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 1024;
    trie_lock = Mutex.create ();
    root =
      {
        text = "";
        tree = Oracle.pre empty 0;
        digest;
        target = None;
        ret = 0;
        during_key = "";
        after_key = "";
        children = Hashtbl.create 64;
      };
    initial_key = initial_key digest;
  }

let find t key ~point =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.find_opt t.table key
      |> Option.map (fun e ->
             let same = e.last_point = point in
             e.last_point <- point;
             (e.verdicts, same)))

(* First verdict wins: a racing domain that computed the same key keeps
   the entry already there (both verdicts are equal anyway). *)
let add t key ~point verdicts =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e -> e.last_point <- point
      | None -> Hashtbl.replace t.table key { verdicts; last_point = point })

let entries t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.table)

(* --- the call-prefix trie --- *)

type program = { oracle : Oracle.t; nodes : node array; initial : string; reused : int }

let oracle p = p.oracle
let reused p = p.reused
let text p i = p.nodes.(i).text

let phase_key p (phase : Checker.phase) =
  match phase with
  | Checker.Initial -> p.initial
  | Checker.During i -> p.nodes.(i).during_key
  | Checker.After i -> p.nodes.(i).after_key

(* The nodes of the longest prefix of [calls] already in the trie. *)
let known_prefix t calls =
  Mutex.protect t.trie_lock (fun () ->
      let rec go node acc = function
        | [] -> acc
        | c :: rest -> (
          match Hashtbl.find_opt node.children c with
          | Some child -> go child (child :: acc) rest
          | None -> acc)
      in
      Array.of_list (List.rev (go t.root [] calls)))

let program t calls =
  let known = known_prefix t calls in
  let k = Array.length known in
  let boundary b = if b = 0 then t.root else known.(b - 1) in
  let prefix =
    Oracle.make
      ~trees:(Array.init (k + 1) (fun b -> (boundary b).tree))
      ~digests:(Array.init (k + 1) (fun b -> (boundary b).digest))
      ~targets:(Array.map (fun n -> n.target) known)
      ~rets:(Array.map (fun n -> n.ret) known)
  in
  let oracle = Oracle.run ~known:prefix calls in
  let calls = Array.of_list calls in
  let n = Array.length calls in
  let nodes =
    if k = n then known
    else begin
      (* Render the new suffix outside the lock, then link it in. A domain
         that linked the same prefix meanwhile built equal nodes: keep its
         nodes. *)
      let fresh =
        Array.init (n - k) (fun j ->
            let i = k + j in
            let text = Vfs.Syscall.to_string calls.(i) in
            let post = Oracle.post_digest oracle i in
            {
              text;
              tree = Oracle.post oracle i;
              digest = post;
              target = Oracle.target oracle i;
              ret = Oracle.ret oracle i;
              during_key = during_key ~text ~pre:(Oracle.pre_digest oracle i) ~post;
              after_key = after_key ~text ~target:(Oracle.target oracle i) ~post;
              children = Hashtbl.create 2;
            })
      in
      Mutex.protect t.trie_lock (fun () ->
          let nodes = Array.append known fresh in
          for i = k to n - 1 do
            let parent = if i = 0 then t.root else nodes.(i - 1) in
            match Hashtbl.find_opt parent.children calls.(i) with
            | Some existing -> nodes.(i) <- existing
            | None -> Hashtbl.add parent.children calls.(i) nodes.(i)
          done;
          nodes)
    end
  in
  { oracle; nodes; initial = t.initial_key; reused = k + 1 }
