(** The oracle file system: a purely in-DRAM reference implementation of the
    POSIX surface, with no crash-consistency machinery at all.

    The Chipmunk checker runs each workload on a fresh Memfs instance in
    parallel with trace replay and compares crash states of the system under
    test against the oracle's pre- and post-syscall trees (paper section
    3.3). Because Memfs has no persistence, it is trivially "correct" —
    there is nothing to tear or lose — which is exactly what an oracle
    needs. *)

val handle : unit -> Vfs.Handle.t
(** A fresh, empty file system containing only the root directory, behind
    the POSIX layer. *)
