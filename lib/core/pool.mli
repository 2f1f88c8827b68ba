(** A work-queue scheduler over OCaml 5 domains.

    Campaigns spend nearly all of their time in [Harness.test_workload].
    Every invocation builds its own persistence tracker and oracle, on its
    domain's own device images; the only state shared between invocations
    is the campaign's verdict cache, which is internally locked
    ({!Vcache}). That makes
    workload-level parallelism safe — this module shards a lazy
    sequence of tasks across [jobs] worker domains pulling from a common
    cursor (stdlib [Domain]/[Mutex] only; no external dependency).

    Results carry the index of the task that produced them, so callers can
    merge deterministically regardless of scheduling order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [\[1, 8\]]. *)

val map :
  ?jobs:int ->
  ?stop:(unit -> bool) ->
  ('a -> 'b) ->
  'a Seq.t ->
  (int * 'a * 'b) list
(** [map f seq] applies [f] to every element of [seq] on a pool of worker
    domains and returns [(index, input, output)] triples sorted by index
    (the position of the input in [seq]).

    - [jobs] is the number of worker domains (default {!default_jobs};
      [jobs <= 1] runs in the calling domain with identical semantics).
    - [stop] is polled before each task is dispatched; once it returns
      [true] no further tasks start, but tasks already running complete,
      so the returned indices always form a contiguous prefix [0..k].
      It runs under the pool lock; state it reads that [f] updates (a
      campaign's finding counter) needs a lock of its own.
    - The sequence is forced lazily, one element per dispatch, under the
      pool lock: it is never evaluated concurrently and never materialized.

    If [f], [stop] or the sequence raises, the pool drains (no new tasks
    start) and the first exception observed is re-raised in the caller. *)
