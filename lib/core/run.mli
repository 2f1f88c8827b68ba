(** The unified execution API: one pair of config records shared by the
    multi-workload entry points that drive the harness — {!Campaign.run}
    (a workload suite) and [Fuzz.Fuzzer.run] (the gray-box fuzzer) — plus
    the {!findings} accumulator both merge their results through. A
    single workload needs neither: call {!Harness.test_workload}.

    A {!budget} says {e when to stop}; an {!exec} says {e how to run}.
    Runners ignore the caps that do not apply to them and document which
    ones do. *)

type budget = {
  max_execs : int option;
      (** Cap on harness executions: one per generated workload for the
          fuzzer, one per suite workload for campaigns. *)
  max_seconds : float option;
      (** Wall-clock cap. Runners stop {e dispatching} new work once
          exceeded; work already in flight still completes and is merged. *)
  stop_after_findings : int option;
      (** Stop once this many unique fingerprints have been found. The
          returned event list holds exactly this many entries. *)
}

val unlimited : budget
(** No caps: every field [None]. *)

val budget :
  ?max_execs:int -> ?max_seconds:float -> ?stop_after_findings:int -> unit -> budget
(** Constructor; omitted caps default to [None] (unlimited). *)

type exec = {
  opts : Harness.opts;  (** Per-workload replay/check options. *)
  jobs : int;
      (** Worker domains for {!Campaign.run}, its only reader. [1] (the
          default) runs in the calling domain; [0] or negative means one
          per core ({!Pool.default_jobs}). *)
  use_vcache : bool;
      (** Campaign-wide verdict cache (see {!Vcache}): runners create one
          fresh cache per run and thread it through every harness call, so
          equivalent crash states skip their mount+check. It is the only
          crash-state cache: [false] mounts and checks every enumerated
          state. Findings are identical on or off; only the hit counters
          (and wall-clock) change. On by default. *)
}

val default_exec : exec
(** [{ opts = Harness.default_opts; jobs = 1; use_vcache = true }] *)

val exec :
  ?opts:Harness.opts ->
  ?jobs:int ->
  ?use_vcache:bool ->
  unit ->
  exec
(** Constructor; omitted fields default to {!default_exec}'s values. *)

val effective_jobs : exec -> int
(** [exec.jobs], with [0] and negative resolved to {!Pool.default_jobs}
    and large values clamped to the {!Pool.map} limit. *)

val out_of_budget : budget -> execs:int -> seconds:float -> findings:int -> bool
(** [true] once {e any} cap is reached ([counter >= cap]); [None] caps
    never trigger. This single predicate is the stop rule every runner
    polls, so cap interactions (e.g. a findings cap hitting before an exec
    cap) behave identically across entry points. *)

(** {1 First-wins findings} *)

type 'e findings
(** Unique findings of a run, as caller-defined events ['e]. Reports are
    deduplicated by {!Report.fingerprint}; the first occurrence wins, so
    feeding results in work-index order makes the lowest index win. *)

val findings : budget -> 'e findings
(** An empty accumulator that holds at most [budget.stop_after_findings]
    events. *)

val add : 'e findings -> Report.t list -> (string -> Report.t -> 'e) -> unit
(** [add f reports make] records, in order, each report whose fingerprint
    is new, as [make fingerprint report]. Once the cap is reached the rest
    are dropped unseen. *)

val count : 'e findings -> int
(** Events recorded so far. *)

val events : 'e findings -> 'e list
(** Recorded events, oldest first. *)
