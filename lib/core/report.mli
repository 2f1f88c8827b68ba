(** Bug reports produced by the consistency checker.

    A report carries enough context to reproduce the bug (paper Figure 1):
    the workload, the crash point (which fence / syscall boundary), and the
    subset of in-flight writes that was replayed to build the failing crash
    state. [fingerprint] gives a stable identity used to deduplicate the
    many crash states that trigger the same underlying bug. *)

type crash_point = {
  fence_no : int;  (** Index of the fence (or syscall boundary) in the trace. *)
  during_syscall : int option;  (** Syscall in progress, if the crash is mid-call. *)
  after_syscall : int option;  (** Last completed syscall. *)
  subset : int list;  (** Sequence numbers of the replayed in-flight writes. *)
  in_flight : int;  (** Size of the in-flight vector at this point. *)
}

type kind =
  | Unmountable of string  (** Recovery rejected the crash state. *)
  | Recovery_fault of string  (** Recovery crashed (OOB access, double free...). *)
  | Atomicity of { syscall : string; diffs : string list }
      (** Mid-call state matches neither the pre- nor post-state. *)
  | Synchrony of { syscall : string; diffs : string list }
      (** Post-call state does not match the completed operation. *)
  | Torn_data of { path : string; detail : string }
      (** File bytes that are neither old, new, nor zero. *)
  | Inaccessible of { path : string; error : string }
      (** A file or directory in the crash state cannot be inspected. *)
  | Unusable of string  (** The usability probe (create/write/delete) failed. *)

type t = {
  fs : string;
  workload : Vfs.Syscall.t list;
  crash_point : crash_point;
  kind : kind;
}

val fingerprint : t -> string
(** Stable identity for deduplication: the kind of failure, the syscall
    involved, and a normalized digest of the evidence — not the specific
    crash state. It is [fingerprint_of] over the parts below. *)

(** {2 Fingerprint parts}

    A fingerprint joins four parts: the file system, the kind's label, the
    crash context and the normalized evidence. The replay loop renders the
    context once per crash phase and a fingerprint once per verdict-cache
    entry, so a repeated finding renders nothing. *)

val context : during_syscall:int option -> after_syscall:int option -> (int -> string) -> string
(** ["during:W"], ["after:W"] or ["init"], where [W] is the given function
    of the syscall index: the first word of that call's rendering. *)

val first_word : string -> string
(** The first word of a rendered syscall: its name. *)

val fingerprint_of : fs:string -> context:string -> kind -> string
(** ["fs/label/context/evidence"]: {!fingerprint} of a report with these
    parts. *)

val summary : t -> string
val pp : Format.formatter -> t -> unit
(** Full report: workload listing, crash point, evidence. *)

val to_json : t -> string
(** The report as a self-contained JSON object (fs, kind, crash point,
    workload listing, evidence, fingerprint) — the machine-readable form
    used by [BENCH_parallel.json], reproducer artifacts and other tooling
    that tracks findings across runs. The workload array uses the
    {!Vfs.Workload_io} per-line codec, so the JSON carries everything
    needed to re-derive the crash state. *)

val of_json : string -> (t, string) result
(** Inverse of {!to_json} ([of_json (to_json t) = Ok t] for every report):
    the loader behind [chipmunk-cli minimize]/[reproduce]. Derived fields
    ([fingerprint], [summary]) are ignored and recomputed; unknown extra
    fields (e.g. a reproducer artifact's shrink metadata) are tolerated. *)

val of_json_value : Json.t -> (t, string) result
(** {!of_json} on an already-parsed document, for callers that wrap report
    JSON inside a larger object. *)
