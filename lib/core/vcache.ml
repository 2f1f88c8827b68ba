(* Campaign-wide verdict cache.

   The checker's verdict for a crash state depends only on (a) the crash
   image bytes — which determine the mounted tree, (b) the crash phase's
   oracle slice (the rendered syscall plus the pre/post trees it is compared
   against, or the fsync target for weak systems), and (c) the file system's
   contract (atomic_data / consistency — fixed per driver). It does NOT
   depend on which workload or crash point produced the state, so verdicts
   memoized under the key (fs, oracle-slice digest, image digest) are shared
   across crash points and across workloads: ACE workload families share long
   syscall prefixes, so whole mount+check rounds repeat campaign-wide.

   One table, guarded by a mutex, serves every domain of a run, so a
   verdict added on one domain is visible to all the others at once. Caches
   are transparent for findings — a hit replays the exact kinds the checker
   would compute — so jobs=1 vs jobs=N stay finding-for-finding identical
   even though hit *counts* at jobs=N depend on scheduling. *)

type entry = Report.kind list

type ckey = string * int
(* (fs ^ "|" ^ phase-digest, image digest): structural key, so the hot path
   never renders the image digest to hex or concatenates per state — the
   string half is shared across every state of a phase via {!prefix}. *)

type t = { mutex : Mutex.t; table : (ckey, entry) Hashtbl.t }

let create () = { mutex = Mutex.create (); table = Hashtbl.create 1024 }

let find t key = Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.table key)

(* First verdict wins: a racing domain that computed the same key keeps
   the entry already there (both verdicts are equal anyway). *)
let add t key kinds =
  Mutex.protect t.mutex (fun () ->
      if not (Hashtbl.mem t.table key) then Hashtbl.replace t.table key kinds)

let entries t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.table)

(* --- keys --- *)

let call_text calls i = if i < Array.length calls then calls.(i) else "?"

(* Everything the checker reads from the oracle/workload at this phase, and
   nothing more: notably NOT the syscall index itself, so equivalent phases
   of different workloads (shared ACE-family prefixes) share cache lines.
   The tree component is the oracle's boundary digest, computed once per
   boundary by [Oracle.run], so it is O(1) here. Call texts are
   length-prefixed so a pathological syscall rendering cannot straddle a
   separator. *)
let phase_digest oracle ~calls (phase : Checker.phase) =
  let call i =
    let c = call_text calls i in
    Printf.sprintf "%d\002%s" (String.length c) c
  in
  match phase with
  | Checker.Initial -> Printf.sprintf "I\001%x" (Oracle.pre_digest oracle 0)
  | Checker.During i ->
    Printf.sprintf "D\001%s\001%x\001%x" (call i)
      (Oracle.pre_digest oracle i)
      (Oracle.post_digest oracle i)
  | Checker.After i ->
    let tgt =
      match Oracle.target oracle i with
      | None -> "-"
      | Some p -> Printf.sprintf "%d\002%s" (String.length p) p
    in
    Printf.sprintf "A\001%s\001%s\001%x" (call i) tgt (Oracle.post_digest oracle i)

let prefix ~fs ~phase_digest = fs ^ "|" ^ phase_digest
let key_of ~prefix ~image_digest : ckey = (prefix, image_digest)

let key ~fs ~image_digest ~phase_digest =
  key_of ~prefix:(prefix ~fs ~phase_digest) ~image_digest
