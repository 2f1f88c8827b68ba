(** Report triage: fuzzers drown in duplicates, so reports are clustered by
    lexical similarity (the paper extends Syzkaller with the same simple
    scheme, section 3.4.2). *)

type cluster = {
  representative : Chipmunk.Report.t;
  members : Chipmunk.Report.t list;  (** Including the representative. *)
}

val tokens : Chipmunk.Report.t -> string list
(** Normalized lexical tokens of a report's summary and fingerprint. *)

val similarity : Chipmunk.Report.t -> Chipmunk.Report.t -> float
(** Jaccard similarity of token sets, in [0, 1]. *)

val cluster : Chipmunk.Report.t list -> cluster list
(** Greedy clustering: each report joins the first cluster whose
    representative is at least 0.6 similar, else
    starts a new one. Clusters are returned largest first. *)

val minimize :
  ?opts:Chipmunk.Harness.opts ->
  Vfs.Driver.t ->
  cluster list ->
  (cluster * Shrink.Minimize.outcome option) list
(** Run {!Shrink.Minimize.run} on each cluster's representative — one
    minimization per cluster, never per member. The representative is
    replaced by its minimized form when minimization succeeds; [None]
    means the representative did not reproduce and was left untouched. *)
