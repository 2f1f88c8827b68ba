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
   the cache doubles as the per-point dedup table. *)

type entry = { kinds : Report.kind list; mutable last_point : int }

type ckey = string * int
(* (phase digest, image digest): structural key, so the hot path never
   renders the image digest to hex or concatenates per state — the string
   half is shared across every state of a phase. *)

type t = { mutex : Mutex.t; table : (ckey, entry) Hashtbl.t }

let create () = { mutex = Mutex.create (); table = Hashtbl.create 1024 }

let find t key ~point =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.find_opt t.table key
      |> Option.map (fun e ->
             let same = e.last_point = point in
             e.last_point <- point;
             (e.kinds, same)))

(* First verdict wins: a racing domain that computed the same key keeps
   the entry already there (both verdicts are equal anyway). *)
let add t key ~point kinds =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e -> e.last_point <- point
      | None -> Hashtbl.replace t.table key { kinds; last_point = point })

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

let key ~phase_digest ~image_digest : ckey = (phase_digest, image_digest)
