(** Minimal JSON support with no external dependency.

    The encoder half is a set of string combinators shared by the
    machine-readable outputs ({!Report.to_json}, the bench JSON files, the
    reproducer artifacts); the decoder is a small recursive-descent parser
    used to load those outputs back ({!Report.of_json},
    [Shrink.Artifact.load]). It covers exactly the JSON this repository
    emits: objects, arrays, strings, integers, floats, booleans and null,
    with the usual escapes. *)

(** {1 Encoding} *)

val str : string -> string
(** A quoted, escaped string literal. *)

val int_opt : int option -> string
(** An integer, or [null]. *)

val arr : string list -> string
(** An array of pre-rendered fragments. *)

val obj : (string * string) list -> string
(** An object of pre-rendered fragments, keys escaped. *)

(** {1 Decoding} *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** Fields in document order. *)

val parse : string -> (t, string) result
(** Parse a complete document; trailing garbage is an error. Errors name
    the offending byte offset. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_list_opt : t -> t list option
