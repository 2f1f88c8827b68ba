(** Report triage: fuzzers drown in duplicates, so reports are clustered by
    lexical similarity (the paper extends Syzkaller with the same simple
    scheme, section 3.4.2). *)

type cluster = {
  representative : Chipmunk.Report.t;
  size : int;  (** Reports placed in the cluster, the representative included. *)
}

val tokens : Chipmunk.Report.t -> string list
(** Normalized lexical tokens of a report's summary and fingerprint. *)

val similarity : Chipmunk.Report.t -> Chipmunk.Report.t -> float
(** Jaccard similarity of token sets, in [0, 1]. *)

(** {2 Incremental clustering}

    Greedy first-match clustering: each report joins the first cluster,
    in creation order, whose representative is at least 0.6 similar, else
    it starts a new one. Placement depends only on the order reports
    arrive in, so adding a run's reports one at a time, as they are found,
    gives the clusters of the whole list. A cluster keeps its
    representative and a count, never its members: triage memory grows
    with the distinct reports, not with every occurrence. *)

type t
(** Clusters under construction. *)

val create : unit -> t

val add : t -> fingerprint:string -> Chipmunk.Report.t -> unit
(** Place one report. [fingerprint] is its {!Chipmunk.Report.fingerprint}
    (a {!Chipmunk.Harness.result} carries it). Each distinct {!key} is
    tokenized and placed once; later reports with that key join the same
    cluster without a comparison. *)

val clusters : t -> cluster list
(** The clusters so far, largest first (ties in creation order). *)

val cluster : Chipmunk.Report.t list -> cluster list
(** [clusters] after [add]ing every report of the list, in order. *)

type key = string * string * Chipmunk.Report.kind * int option * int option

val key : fingerprint:string -> Chipmunk.Report.t -> key
(** The placement memo's key: [(fs, fingerprint, kind, during_syscall,
    after_syscall)]. It determines {!tokens}: those read only the fs, the
    kind, the crash point's indices and the first word of the call there,
    which the fingerprint carries. *)

val minimize :
  ?opts:Chipmunk.Harness.opts ->
  Vfs.Driver.t ->
  cluster list ->
  (cluster * Shrink.Minimize.outcome option) list
(** Run {!Shrink.Minimize.run} on each cluster's representative — one
    minimization per cluster, never per member. The representative is
    replaced by its minimized form when minimization succeeds; [None]
    means the representative did not reproduce and was left untouched. *)
