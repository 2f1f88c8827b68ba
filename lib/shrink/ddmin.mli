(** Generic delta debugging (Zeller & Hildebrandt's ddmin) over lists.

    Given a list for which [test] holds, find a 1-minimal sublist for which
    it still holds: removing any single remaining element makes [test]
    fail. Elements keep their relative order; candidates are always
    sublists of the input, never reorderings.

    The minimizers in this library instantiate [test] with a full harness
    re-run (workload minimization) or a crash-state rebuild (in-flight
    subset minimization), so every probe is expensive — results of probes
    are memoized, and the stats expose how many real probes were spent. *)

type stats = {
  probes : int;  (** Distinct candidates actually passed to [test]. *)
  cache_hits : int;  (** Candidates answered from the memo table. *)
}

val run : test:('a list -> bool) -> 'a list -> 'a list * stats
(** [run ~test items] assumes [test items = true] (if it is not, no
    reduction is found and the input comes back unchanged). The empty
    candidate is probed first, so a vacuously reproducible predicate
    minimizes to []. [test] must be deterministic: probe results are
    memoized by candidate. *)
