(** Coverage points for gray-box fuzzing.

    The original Chipmunk collects kernel coverage through Syzkaller's KCOV
    integration and user-space coverage through GCC's sanitizer-coverage
    instrumentation (paper section 3.4.2). In this reproduction, file systems
    mark interesting code paths explicitly with {!mark}; the fuzzer wraps
    each execution in {!collect} to learn which points it reached.

    Collection is scoped to the calling domain and to the extent of
    {!collect}: a mark made anywhere else is a no-op, so the marks cost
    next to nothing outside fuzzing runs. *)

val mark : string -> unit
(** Record that the named coverage point was reached, if the calling
    domain is inside {!collect}; otherwise do nothing. *)

val collect : (unit -> 'a) -> 'a * string list
(** [collect f] runs [f ()] and returns its value with the distinct points
    marked on the calling domain while it ran, sorted. Collection stops
    when [f] returns or raises; an enclosing [collect] resumes afterwards
    (its own set does not include the inner marks). *)
