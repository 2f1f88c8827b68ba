(** Executes a {!Syscall} program against a file-system {!Handle}.

    The executor owns the virtual-fd environment. The [before]/[after]
    callbacks bracket each call; the Chipmunk harness uses them to insert
    syscall markers into the write trace and to snapshot oracle state. *)

type outcome = {
  idx : int;
  call : Syscall.t;
  ret : int;  (** >= 0 on success, [- errno] on failure. *)
}

val run :
  ?before:(int -> Syscall.t -> unit) ->
  ?after:(int -> Syscall.t -> int -> unit) ->
  Handle.t ->
  Syscall.t list ->
  outcome list
