(** A work-queue scheduler over OCaml 5 domains.

    Campaigns spend nearly all of their time in [Harness.test_workload].
    Every invocation builds its own persistence tracker and oracle, on its
    domain's own device images; the only state shared between invocations
    is the campaign's verdict cache, which is internally locked
    ({!Vcache}). That makes
    workload-level parallelism safe — this module shards a lazy
    sequence of tasks across [jobs] worker domains pulling from a common
    cursor (stdlib [Domain]/[Mutex] only; no external dependency).

    Results stream to a callback in task-index order, whatever order the
    domains finish in, so callers merge deterministically as results
    arrive and keep nothing per task once it is merged. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [\[1, 8\]]. *)

val iter :
  ?jobs:int ->
  ?stop:(unit -> bool) ->
  ('a -> 'b) ->
  'a Seq.t ->
  (int -> 'a -> 'b -> unit) ->
  unit
(** [iter f seq emit] applies [f] to every element of [seq] on a pool of
    worker domains and calls [emit index input output] once per task, in
    index order (the position of the input in [seq]). A result that
    finishes ahead of a lower index waits in a small index-keyed table
    until every result before it has been emitted; the table holds at most
    the results of tasks dispatched after the oldest one still running.

    - [jobs] is the number of worker domains (default {!default_jobs};
      [jobs <= 1] runs in the calling domain with identical semantics:
      each result is emitted before the next task is dispatched).
    - [stop] is polled before each task is dispatched; once it returns
      [true] no further tasks start, but tasks already running complete
      and are emitted, so the emitted indices always form a contiguous
      prefix [0..k].
    - [emit] and [stop] both run under the pool lock, so [stop] may read
      state that [emit] writes (a campaign's merged finding count) without
      a lock of its own.
    - The sequence is forced lazily, one element per dispatch, under the
      pool lock: it is never evaluated concurrently and never materialized.

    If [f], [stop], the sequence or [emit] raises, the pool drains (no new
    tasks start, no further results are emitted) and the first exception
    observed is re-raised in the caller. *)
