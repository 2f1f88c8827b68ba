(** Plain-text serialization of workloads.

    A testing framework lives and dies by reproducibility: the fuzzer saves
    the workload behind every finding, and the CLI replays saved workloads
    against any file system. The format is line-based, one syscall per
    line, stable across versions:

    {v
    # chipmunk workload
    mkdir /d
    creat /d/f 0
    write 0 seed=42 len=420
    close 0
    rename /d/f /d/g
    v}

    Paths must not contain whitespace (none of the generators produce any);
    [to_string]/[of_string] round-trip for every representable workload. *)

val to_string : Syscall.t list -> string
val of_string : string -> (Syscall.t list, string) result
(** Parse errors name the offending line. Blank lines and [#] comments are
    ignored. *)

val line_of_call : Syscall.t -> string
(** One syscall as one line of the format above (no newline). This is also
    the per-call encoding used inside {!Chipmunk.Report.to_json}'s workload
    array, so saved reports round-trip through the same codec. *)

val parse_line : string -> (Syscall.t, string) result
(** Inverse of {!line_of_call}; the input must be a single non-comment,
    non-blank line. A negative [len] on [write]/[pwrite] is an error. *)

val save : path:string -> Syscall.t list -> unit
val load : path:string -> (Syscall.t list, string) result
