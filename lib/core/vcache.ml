(* Campaign-wide verdict cache.

   The checker's verdict for a crash state depends only on (a) the crash
   image bytes — which determine the mounted tree, (b) the crash phase's
   oracle slice (the rendered syscall plus the pre/post trees it is compared
   against, or the fsync target for weak systems), and (c) the driver that
   mounts and judges it (its recovery code and its atomic_data / consistency
   contract). A cache serves one driver instance, so (c) is fixed per cache
   and the key is (phase key, image digest), the phase key interned to an
   int id. It does NOT depend on
   which workload or crash point produced the state, so verdicts are shared
   across crash points and across workloads: ACE workload families share long
   syscall prefixes, so whole mount+check rounds repeat campaign-wide.

   An entry is an immutable verdict: the kinds with their rendered
   fingerprints (the phase fixes a fingerprint's crash context and the
   cache its file system, so they too are functions of the key). Equal
   verdicts are interned, so keys whose states judge alike share one
   value; which crash point looked a key up is the harness's business.

   Two memos are functions of image content alone: the state digests of
   each distinct crash point (fence-prefix digest, in-flight signature),
   and the usability probe's result per crash image digest. The verdicts
   and both memos go through one find-or-run helper, [memo].

   The cache also holds a trie of the call prefixes the campaign has run.
   A prefix determines its last oracle boundary and the phase keys of its
   last call, so each node keeps that boundary and the two phase ids, and
   a program derives only what its new suffix adds. *)

type verdict = (Report.kind * string) list

(* --- keys --- *)

(* Everything the checker reads from the oracle and the workload at one
   phase, and nothing more: notably NOT the syscall index itself, so
   equivalent phases of different workloads (shared ACE-family prefixes)
   share cache lines. Trees enter as the oracle's boundary digests, so a
   key is O(1) to build. *)
type phase_key =
  | Initial of int
  | During of string * int * int  (* call text, pre digest, post digest *)
  | After of string * string option * int  (* call text, fsync target, post digest *)

type key = int * int
(* (phase id, image digest): the phase key is interned once per phase and
   shared by every state of it, so a per-state key is a pair of ints. *)

let phase_key oracle ~text (phase : Checker.phase) =
  match phase with
  | Checker.Initial -> Initial (Oracle.pre_digest oracle 0)
  | Checker.During i -> During (text i, Oracle.pre_digest oracle i, Oracle.post_digest oracle i)
  | Checker.After i -> After (text i, Oracle.target oracle i, Oracle.post_digest oracle i)

(* Tables keyed by pairs and single ints, hashed without the polymorphic
   hash's structural walk. The second int of every key is a content
   digest, already well mixed. *)
module Pair = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (c, d) = a = c && b = d
  let hash ((a, b) : t) = (a * 0x1E3779B97F4A7C15) + b
end)

module Ints = Hashtbl.Make (Int)

(* One node per distinct call prefix the campaign has run: the oracle
   boundary after its last call, and the ids of that call's During and
   After phases. The root stands for the empty prefix: its [after] is the
   Initial phase's id, its [during] is unused. *)
type node = {
  boundary : Oracle.boundary;
  during : int;
  after : int;
  children : (Vfs.Syscall.t, node) Hashtbl.t;
}

(* [mutex] guards the phase ids, the verdicts and their interned values,
   the crash-point memo and the probe memo; [trie_lock] guards the trie
   and its node count. *)
type t = {
  mutex : Mutex.t;
  phase_ids : (phase_key, int) Hashtbl.t;
  table : verdict Pair.t;
  distinct : (verdict, verdict) Hashtbl.t;
  points : int array Pair.t;
  probes : string option Ints.t;
  trie_lock : Mutex.t;
  root : node;
  mutable n_nodes : int;
}

(* --- the cache --- *)

let create () =
  let empty = Oracle.run [] in
  (* Every program's Initial phase has the same key: it is id 0. *)
  let phase_ids = Hashtbl.create 256 in
  Hashtbl.add phase_ids (phase_key empty ~text:string_of_int Checker.Initial) 0;
  {
    mutex = Mutex.create ();
    phase_ids;
    table = Pair.create 1024;
    distinct = Hashtbl.create 256;
    points = Pair.create 1024;
    probes = Ints.create 1024;
    trie_lock = Mutex.create ();
    root = { boundary = Oracle.boundary empty 0; during = -1; after = 0; children = Hashtbl.create 64 };
    n_nodes = 0;
  }

let phase_id t key =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.phase_ids key with
      | Some id -> id
      | None ->
        let id = Hashtbl.length t.phase_ids in
        Hashtbl.add t.phase_ids key id;
        id)

(* The result stored under a key, or [run ()]'s, which [store] stores
   unless a racing domain stored one meanwhile (first result wins; both
   are equal anyway), and whether it was stored before. [run] runs
   outside the lock. *)
let memo t find store run =
  match Mutex.protect t.mutex find with
  | Some r -> (r, true)
  | None ->
    let r = run () in
    (Mutex.protect t.mutex (fun () -> match find () with Some r -> r | None -> store r), false)

let verdict t key =
  memo t (fun () -> Pair.find_opt t.table key) (fun v ->
      (* Equal verdicts share the first one stored. *)
      let v = Option.value (Hashtbl.find_opt t.distinct v) ~default:v in
      Hashtbl.replace t.distinct v v;
      Pair.replace t.table key v;
      v)

let entries t = Mutex.protect t.mutex (fun () -> Pair.length t.table)

(* --- per-image memos --- *)

let point t key =
  memo t (fun () -> Pair.find_opt t.points key) (fun ds -> Pair.replace t.points key ds; ds)

let probe t digest =
  memo t (fun () -> Ints.find_opt t.probes digest) (fun r -> Ints.replace t.probes digest r; r)

type sizes = { verdict_entries : int; trie_nodes : int; point_memo : int; probe_memo : int }

let sizes (t : t) =
  let trie_nodes = Mutex.protect t.trie_lock (fun () -> t.n_nodes) in
  Mutex.protect t.mutex (fun () ->
      {
        verdict_entries = Pair.length t.table;
        trie_nodes;
        point_memo = Pair.length t.points;
        probe_memo = Ints.length t.probes;
      })

(* --- the call-prefix trie --- *)

(* [nodes.(b)] is the node of the program's first [b] calls. *)
type program = { oracle : Oracle.t; nodes : node array; reused : int }

let oracle p = p.oracle
let reused p = p.reused

let phase p = function
  | Checker.Initial -> p.nodes.(0).after
  | Checker.During i -> p.nodes.(i + 1).during
  | Checker.After i -> p.nodes.(i + 1).after

(* The nodes of the longest prefix of [calls] already in the trie, the
   root first. *)
let known_prefix t calls =
  Mutex.protect t.trie_lock (fun () ->
      let rec go node acc = function
        | [] -> acc
        | c :: rest -> (
          match Hashtbl.find_opt node.children c with
          | Some child -> go child (child :: acc) rest
          | None -> acc)
      in
      Array.of_list (List.rev (go t.root [ t.root ] calls)))

let program t calls =
  let known = known_prefix t calls in
  let oracle = Oracle.run ~known:(Array.map (fun n -> n.boundary) known) calls in
  let calls = Array.of_list calls in
  let k = Array.length known - 1 and n = Array.length calls in
  let nodes =
    if k = n then known
    else begin
      (* Build the new suffix's nodes, phase ids included, outside the
         trie lock, then link them in. A domain that linked the same
         prefix meanwhile built equal nodes: keep its nodes. *)
      let fresh =
        Array.init (n - k) (fun j ->
            let i = k + j in
            let text = Vfs.Syscall.to_string calls.(i) in
            let id phase = phase_id t (phase_key oracle ~text:(fun _ -> text) phase) in
            {
              boundary = Oracle.boundary oracle (i + 1);
              during = id (Checker.During i);
              after = id (Checker.After i);
              children = Hashtbl.create 2;
            })
      in
      Mutex.protect t.trie_lock (fun () ->
          let nodes = Array.append known fresh in
          for b = k + 1 to n do
            match Hashtbl.find_opt nodes.(b - 1).children calls.(b - 1) with
            | Some existing -> nodes.(b) <- existing
            | None ->
              Hashtbl.add nodes.(b - 1).children calls.(b - 1) nodes.(b);
              t.n_nodes <- t.n_nodes + 1
          done;
          nodes)
    end
  in
  { oracle; nodes; reused = k + 1 }
