(** Consistency rules: compares a mounted crash state against the oracle.

    The properties follow paper section 3.3:
    - {b atomicity}: a crash in the middle of a system call must leave the
      tree equal to the pre-state or the post-state of that call (all
      modified files matching the same version);
    - {b synchrony}: a crash after a system call completes must leave the
      tree equal to the post-state — PM file systems with strong guarantees
      persist every operation by return time;
    - {b data writes}: when the file system does not promise atomic data
      writes, a mid-write crash may expose any mix of old bytes, new bytes
      and zeros (freshly allocated blocks) within the written file — but
      never garbage, and never changes to other files;
    - {b weak (fsync-based) systems}: after fsync/fdatasync the synced file
      must match the oracle post-state; after sync the whole tree must.

    Inaccessible nodes (stat/read/readdir errors) are reported separately:
    they are how checksum failures and dangling metadata surface. *)

type phase =
  | Initial  (** Before any syscall ran. *)
  | During of int
  | After of int

val judged :
  consistency:Vfs.Driver.consistency -> workload:Vfs.Syscall.t list -> phase -> bool
(** Whether a driver's contract is judged at [phase] of [workload]: a
    strong driver at every phase, a weak one only [After] a call of the
    fsync family (fsync, fdatasync, sync). The harness checks crash
    points only at judged phases. *)

val check :
  atomic_data:bool ->
  consistency:Vfs.Driver.consistency ->
  workload:Vfs.Syscall.t list ->
  oracle:Oracle.t ->
  phase:phase ->
  tree:Vfs.Walker.tree ->
  Report.kind list
(** Empty list = this crash state is consistent. *)
