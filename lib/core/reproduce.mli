(** Reproduce a bug report: re-derive the exact crash state it describes.

    A {!Report.t} pins down a crash deterministically — the workload, the
    crash point (which fence or syscall boundary), and the sequence numbers
    of the in-flight writes that were replayed. Because workload execution
    and trace replay are fully deterministic, re-running the pipeline and
    stopping at the recorded point rebuilds the bit-identical crash image,
    ready for interactive post-mortem (mount it, walk the tree, hexdump
    regions). This is what the paper means by bug reports carrying "enough
    detail to reproduce the bug" (Figure 1).

    A crash state is rebuilt from a report plus the harness [opts] it was
    found under (default {!Harness.default_opts}), by the harness itself:
    {!Harness.record}, {!Harness.walk} up to the report's crash point, then
    {!Harness.mount_and_check}. *)

type crash_state = {
  image : Pmem.Image.t;  (** The device as it would be after the crash. *)
  mount : unit -> (Vfs.Handle.t, string) result;
      (** Run the file system's recovery on (a copy of) the image. *)
  check : unit -> Report.kind list;
      (** Re-run the consistency checks; non-empty iff the bug reproduces. *)
}

val crash_state :
  ?opts:Harness.opts -> Vfs.Driver.t -> Report.t -> (crash_state, string) result
(** Rebuild the crash state a report describes. Never raises; returns
    [Error] when the report does not match this driver — a different file
    system name, a crash point past the end of the re-recorded trace, a
    subset naming sequence numbers that are not in flight at the crash
    point — or when the re-run itself faults. [check] is the harness's own
    check, so every report kind (including [Unusable]) re-verifies. *)

val in_flight_at :
  ?opts:Harness.opts -> Vfs.Driver.t -> Report.t -> (Coalesce.t list, string) result
(** The full in-flight vector (coalesced units, oldest first) at the
    report's crash point — what the report's [subset] indexes into. The
    minimizer uses it to annotate each surviving write with its address
    span and originating persist operation. *)

val matching_kind :
  ?opts:Harness.opts -> Vfs.Driver.t -> Report.t -> (Report.kind option, string) result
(** Rebuild the report's crash state and check it: [Ok (Some k)] for the
    first checked kind [k] that carries the report's
    {!Report.fingerprint}, [Ok None] when no checked kind does (the state
    is consistent, or shows a different finding). [Error] as for
    {!crash_state}. *)

val verify : ?opts:Harness.opts -> Vfs.Driver.t -> Report.t -> bool
(** [true] when re-deriving the crash state reproduces {e this} finding:
    {!matching_kind} returns [Ok (Some _)]. *)
