(** CRC32 (IEEE 802.3 polynomial), used by the NOVA-Fortis and SplitFS models
    to checksum metadata structures and log entries, and the finalizer the
    content digests ({!Image.digest}, [Vfs.Walker.digest]) apply to each
    part before summing the parts. *)

val crc32 : string -> int
(** Checksum of a whole string, in [0, 2^32). *)

val crc32_sub : string -> pos:int -> len:int -> int
(** Checksum of a substring. *)

val mix : int -> int
(** A splitmix64-style finalizer over OCaml's 63-bit ints: two rounds of
    xor-shift and multiply by an odd constant, then a last xor-shift. It is
    a bijection, and its right shifts carry high input bits into low output
    bits. An FNV-1a state alone is not fit to sum: a byte's effect never
    reaches the bits below it, so equal-offset swaps between two summed
    hashes cancel far more often than chance. *)
