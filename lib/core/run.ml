type budget = {
  max_execs : int option;
  max_seconds : float option;
  stop_after_findings : int option;
}

let unlimited = { max_execs = None; max_seconds = None; stop_after_findings = None }

let budget ?max_execs ?max_seconds ?stop_after_findings () =
  { max_execs; max_seconds; stop_after_findings }

type exec = {
  opts : Harness.opts;
  minimize : (Report.t -> Report.t) option;
  jobs : int;
  use_vcache : bool;
}

let default_exec = { opts = Harness.default_opts; minimize = None; jobs = 1; use_vcache = true }

let exec ?(opts = Harness.default_opts) ?minimize ?(jobs = 1) ?(use_vcache = true) () =
  { opts; minimize; jobs; use_vcache }

let effective_jobs e = if e.jobs <= 0 then Pool.default_jobs () else min e.jobs 64

let hit cap counter = match cap with None -> false | Some c -> counter >= c

let out_of_budget b ~execs ~seconds ~findings =
  hit b.max_execs execs
  || (match b.max_seconds with None -> false | Some s -> seconds >= s)
  || hit b.stop_after_findings findings

type 'e findings = {
  seen : (string, unit) Hashtbl.t;
  mutable found : 'e list;  (* newest first *)
  mutable count : int;
  cap : int option;
  hook : (Report.t -> Report.t) option;
}

let findings ?minimize budget =
  {
    seen = Hashtbl.create 32;
    found = [];
    count = 0;
    cap = budget.stop_after_findings;
    hook = minimize;
  }

(* Once [cap] events are held nothing more is recorded, so findings past
   the cap are neither kept nor minimized. *)
let add f reports make =
  List.iter
    (fun report ->
      if not (hit f.cap f.count) then begin
        let fp = Report.fingerprint report in
        if not (Hashtbl.mem f.seen fp) then begin
          Hashtbl.replace f.seen fp ();
          let report = match f.hook with None -> report | Some m -> m report in
          f.found <- make fp report :: f.found;
          f.count <- f.count + 1
        end
      end)
    reports

let count f = f.count
let events f = List.rev f.found

let workload ?(exec = default_exec) driver calls =
  (* The cache is created fresh per call: vcache entries are only valid for
     one driver instance (buggy and clean variants share fs names). Within a
     single workload it still pays off — equivalent states recur across
     crash points. *)
  let vcache = if exec.use_vcache then Some (Vcache.create ()) else None in
  let r = Harness.test_workload ~opts:exec.opts ?vcache driver calls in
  { r with Harness.reports = List.map (Option.value exec.minimize ~default:Fun.id) r.reports }
