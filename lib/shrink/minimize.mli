(** Turn a fuzzer-sized finding into a minimal, replayable reproducer.

    A {!Chipmunk.Report.t} already pins a bug down deterministically, but
    the workload that found it usually carries calls that have nothing to
    do with the failure, and the crash state may replay more in-flight
    writes than the bug needs. CrashMonkey/B³ (Mohan et al., OSDI '18)
    made the case that {e small} workloads are what make crash-consistency
    bugs diagnosable; this module compresses a finding on both axes with
    delta debugging ({!Ddmin}), accepting a candidate only when the
    harness re-run still produces a report with the {e same fingerprint}:

    - {b workload minimization}: ddmin over the report's syscalls, each
      probe a {!Chipmunk.Harness.test_workload} run of the candidate — the
      same crash-state pipeline every campaign runs. Candidates are first
      closed over fd-vars ({!repair_fds}) so dropping an [open] or [creat]
      does not leave later calls referencing a descriptor that no longer
      exists. A per-minimization {!Chipmunk.Vcache} memoizes checker
      verdicts across probes.
    - {b crash-subset minimization}: ddmin over the crash point's replayed
      in-flight writes, each probe a {!Chipmunk.Reproduce.crash_state}
      rebuild + check under the same harness opts — yielding the smallest
      set of writes that still fails, with a per-write {!culprit}
      annotation naming the address span and the persist operation that
      issued it. *)

type culprit = {
  seq : int;  (** Sequence number in the in-flight vector. *)
  addr : int;  (** Lowest device offset the unit writes. *)
  len : int;  (** Bytes of the covered span. *)
  kind : string;  (** ["nt"] or ["clwb"] (see {!Persist.Trace.write_kind}). *)
  func : string;  (** Intercepted persistence function that issued it. *)
  syscall : int option;  (** Workload index of the issuing syscall. *)
  syscall_name : string option;  (** That syscall, rendered. *)
}

type stats = {
  ops_before : int;
  ops_after : int;
  subset_before : int;
  subset_after : int;
  harness_runs : int;  (** Workload-ddmin probes run through the harness. *)
  check_runs : int;  (** Crash-state rebuilds spent on subset ddmin. *)
}

type outcome = {
  report : Chipmunk.Report.t;
      (** The minimized report: same fingerprint, shortest workload found,
          smallest in-flight subset found, crash point re-derived so
          {!Chipmunk.Reproduce} replays it bit-identically. *)
  stats : stats;
  culprits : culprit list;  (** One per write in the final subset. *)
}

val repair_fds : input:Vfs.Syscall.t list -> Vfs.Syscall.t list -> Vfs.Syscall.t list
(** [repair_fds ~input candidate] drops every call of [candidate] that uses
    an fd-var some [creat]/[open] of [input] binds but no surviving earlier
    [creat]/[open] of [candidate] does. Uses of an fd-var [input] never
    binds (the fuzzer's [-1] when no descriptor is open) were unbound in
    [input] too, and stay. Calls that never bind or use descriptors pass
    through; [repair_fds ~input input] is [input] for any workload whose
    uses follow their binds. *)

val run :
  ?opts:Chipmunk.Harness.opts ->
  Vfs.Driver.t ->
  Chipmunk.Report.t ->
  (outcome, string) result
(** Minimize [report] against [driver]. [opts] must be the harness options
    the report was found under (fingerprints can depend on the replay cap
    and granularity; crash states on granularity and coalescing); both
    phases and the culprit annotation use them. They default to
    {!Chipmunk.Harness.default_opts}.
    Errors when the report does not reproduce on [driver] at all. The
    outcome's fingerprint is guaranteed equal to the input's. *)

val rewrite : ?opts:Chipmunk.Harness.opts -> Vfs.Driver.t -> Chipmunk.Report.t -> Chipmunk.Report.t
(** Total version of {!run} for use as a [~minimize] callback
    ({!Chipmunk.Harness.test_workload}, {!Chipmunk.Campaign.run}): the
    minimized report, or the input unchanged when minimization fails. *)
