(* The image maintains an incremental content digest alongside the bytes: a
   63-bit FNV-1a hash per cache line, finalized by [Checksum.mix] and folded
   into a rolling root by commutative addition. Hashing is deferred: a write only
   marks the lines it touches stale, and the next [digest] (or [snapshot],
   [restore], [equal], [checkpoint]) rehashes each stale line once and
   patches the root (subtract old line hash, add new). Digesting a crash
   state costs O(lines dirtied by the in-flight writes), not O(device size),
   and lines nobody digests are never hashed. The digest is a pure function
   of the byte contents.

   A checkpoint saves each cache line's bytes and line hash on the first
   write to it, and [rollback] blits those lines back and restores their
   hashes and the root, so the checker's own writes to a crash state are
   undone without hashing anything.

   Every line written since the image was zero is on [written], so [clear]
   and [restore] reset only those lines instead of the whole device.

   Invariants: [root] is the sum of [line_hash]; a line's [line_hash] is
   its [hash_line] unless its stale flag is set; each stale line is on
   [stale] once. A line off [written] holds zero bytes and the zero
   state's hash; each line on it has its written flag set and is on it
   once. While a checkpoint is open, every line written since has its
   saved flag set and is on [saved] once, and every stale line is saved
   (the checkpoint started with no stale lines). *)

type t = {
  data : Bytes.t;
  size : int;
  line_hash : int array;
  mutable root : int;
  zero : int array * int;  (** The zero state's line hashes and root, shared. *)
  flags : Bytes.t;  (** Per line: [stale_flag] lor [saved_flag] lor [written_flag]. *)
  mutable stale : int array;  (** Stale line indices, [n_stale] of them. *)
  mutable n_stale : int;
  mutable written : int array;  (** Lines that may be non-zero, [n_written] of them. *)
  mutable n_written : int;
  mutable ckpt_open : bool;
  mutable ckpt_root : int;
  mutable saved : int array;  (** Saved line indices, [n_saved] of them. *)
  mutable saved_hash : int array;
  mutable saved_data : Bytes.t;  (** Saved line [i] at [i * cache_line]. *)
  mutable n_saved : int;
}

let stale_flag = 1
let saved_flag = 2
let written_flag = 4

(* FNV-1a offset basis / prime, basis truncated to fit OCaml's 63-bit int;
   the per-line seed mixes the line index in so identical lines at different
   offsets hash differently (the rolling root is a plain sum, so without the
   index mix swapping two equal-length regions would collide). The root sums
   [Checksum.mix] of each line's FNV state: unmixed, equal-offset byte swaps
   between two lines cancel in the sum far more often than chance. *)
let fnv_basis = 0x1bf29ce484222325
let fnv_prime = 0x100000001b3
let index_mix = 0x2545F4914F6CDD1D

let n_lines size = (size + Const.cache_line - 1) / Const.cache_line

let hash_line data size idx =
  let off = idx * Const.cache_line in
  let stop = min size (off + Const.cache_line) in
  let h = ref (fnv_basis + (idx * index_mix)) in
  for i = off to stop - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get data i)) * fnv_prime
  done;
  Checksum.mix !h

(* The line hashes and root of a zero-filled device depend only on its
   size: hash them once per size (campaigns create and clear images of one
   or two sizes, thousands of times) and hand out copies. The table is
   shared by every domain, hence the lock. *)
let zero_memo : (int, int array * int) Hashtbl.t = Hashtbl.create 4
let zero_memo_lock = Mutex.create ()

let zero_state size =
  Mutex.protect zero_memo_lock (fun () ->
      match Hashtbl.find_opt zero_memo size with
      | Some z -> z
      | None ->
        let data = Bytes.make size '\000' in
        let line_hash = Array.init (n_lines size) (hash_line data size) in
        let z = (line_hash, Array.fold_left ( + ) 0 line_hash) in
        Hashtbl.add zero_memo size z;
        z)

let line = Const.cache_line

let of_parts ~data ~size ~line_hash ~root ~zero ~flags ~written =
  {
    data;
    size;
    line_hash;
    root;
    zero;
    flags;
    stale = [||];
    n_stale = 0;
    written;
    n_written = Array.length written;
    ckpt_open = false;
    ckpt_root = 0;
    saved = [||];
    saved_hash = [||];
    saved_data = Bytes.empty;
    n_saved = 0;
  }

let create ~size =
  let ((line_hash, root) as zero) = zero_state size in
  of_parts ~data:(Bytes.make size '\000') ~size ~line_hash:(Array.copy line_hash) ~root ~zero
    ~flags:(Bytes.make (n_lines size) '\000') ~written:[||]

let size t = t.size

(* [off > size - len], not [off + len > size]: the sum overflows for an
   offset near [max_int], such as one read from a corrupt pointer. *)
let check t ~off ~len =
  if off < 0 || len < 0 || off > t.size - len then
    Fault.out_of_bounds ~off ~len ~size:t.size

let grow a n = if n < Array.length a then a else Array.append a (Array.make (max 16 n) 0)

let rec zero_from data i stop =
  if i + 8 <= stop then Bytes.get_int64_ne data i = 0L && zero_from data (i + 8) stop
  else i >= stop || (Bytes.get data i = '\000' && zero_from data (i + 1) stop)

(* Rehash every stale line once and patch the root. An all-zero line (mkfs
   zeroes whole tables) takes its hash from the zero state instead. *)
let sync t =
  let zero_hash = fst t.zero in
  for i = 0 to t.n_stale - 1 do
    let l = Array.unsafe_get t.stale i in
    let off = l * line in
    let h =
      if zero_from t.data off (min t.size (off + line)) then Array.unsafe_get zero_hash l
      else hash_line t.data t.size l
    in
    t.root <- t.root - Array.unsafe_get t.line_hash l + h;
    Array.unsafe_set t.line_hash l h;
    Bytes.unsafe_set t.flags l
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.flags l) land lnot stale_flag))
  done;
  t.n_stale <- 0

(* Save line [l]'s bytes and hash for [rollback]. Its hash is current: an
   unsaved line is not stale while a checkpoint is open. *)
let save t l =
  let n = t.n_saved in
  if n = Array.length t.saved then begin
    t.saved <- grow t.saved n;
    t.saved_hash <- grow t.saved_hash n;
    let d = Bytes.create (Array.length t.saved * line) in
    Bytes.blit t.saved_data 0 d 0 (n * line);
    t.saved_data <- d
  end;
  let off = l * line in
  Array.unsafe_set t.saved n l;
  Array.unsafe_set t.saved_hash n (Array.unsafe_get t.line_hash l);
  Bytes.blit t.data off t.saved_data (n * line) (min line (t.size - off));
  t.n_saved <- n + 1

let note_written t l =
  if t.n_written = Array.length t.written then t.written <- grow t.written t.n_written;
  Array.unsafe_set t.written t.n_written l;
  t.n_written <- t.n_written + 1

(* Call before mutating [off, off+len) (bounds already checked): save the
   lines a checkpoint has not saved yet, and mark the lines stale and
   written. *)
let touch t ~off ~len =
  if len > 0 then
    for l = off / line to (off + len - 1) / line do
      let f = Char.code (Bytes.unsafe_get t.flags l) in
      let f =
        if t.ckpt_open && f land saved_flag = 0 then begin
          save t l;
          f lor saved_flag
        end
        else f
      in
      let f =
        if f land stale_flag = 0 then begin
          if t.n_stale = Array.length t.stale then t.stale <- grow t.stale t.n_stale;
          Array.unsafe_set t.stale t.n_stale l;
          t.n_stale <- t.n_stale + 1;
          f lor stale_flag
        end
        else f
      in
      let f =
        if f land written_flag = 0 then begin
          note_written t l;
          f lor written_flag
        end
        else f
      in
      Bytes.unsafe_set t.flags l (Char.unsafe_chr f)
    done

(* Reset every written line to zero bytes, the zero state's hash and no
   flags, and forget any open checkpoint: stale and saved lines are all
   written lines. O(lines written since the image was zero). *)
let clear t =
  let zero_hash, root = t.zero in
  for i = 0 to t.n_written - 1 do
    let l = Array.unsafe_get t.written i in
    let off = l * line in
    Bytes.unsafe_fill t.data off (min line (t.size - off)) '\000';
    Array.unsafe_set t.line_hash l (Array.unsafe_get zero_hash l);
    Bytes.unsafe_set t.flags l '\000'
  done;
  t.n_written <- 0;
  t.n_stale <- 0;
  t.n_saved <- 0;
  t.ckpt_open <- false;
  t.root <- root

let checkpoint t =
  if t.ckpt_open then invalid_arg "Image.checkpoint: a checkpoint is already open";
  sync t;
  t.ckpt_root <- t.root;
  t.ckpt_open <- true

let rollback t =
  if not t.ckpt_open then invalid_arg "Image.rollback: no checkpoint is open";
  for i = 0 to t.n_saved - 1 do
    let l = Array.unsafe_get t.saved i in
    let off = l * line in
    Bytes.blit t.saved_data (i * line) t.data off (min line (t.size - off));
    Array.unsafe_set t.line_hash l (Array.unsafe_get t.saved_hash i);
    Bytes.unsafe_set t.flags l (Char.unsafe_chr written_flag)
  done;
  (* Every stale line was saved, so none is stale now. *)
  t.n_stale <- 0;
  t.n_saved <- 0;
  t.root <- t.ckpt_root;
  t.ckpt_open <- false

let digest t =
  sync t;
  t.root lxor (t.size * fnv_prime)

let rehash t =
  let root = ref 0 in
  for l = 0 to n_lines t.size - 1 do
    root := !root + hash_line t.data t.size l
  done;
  !root lxor (t.size * fnv_prime)

let read t ~off ~len =
  check t ~off ~len;
  Bytes.sub_string t.data off len

let read_u8 t ~off =
  check t ~off ~len:1;
  Char.code (Bytes.get t.data off)

let read_u16 t ~off =
  check t ~off ~len:2;
  Bytes.get_uint16_le t.data off

let read_u32 t ~off =
  check t ~off ~len:4;
  Int32.to_int (Bytes.get_int32_le t.data off) land 0xFFFFFFFF

let read_u64 t ~off =
  check t ~off ~len:8;
  Int64.to_int (Bytes.get_int64_le t.data off)

let write_string t ~off s =
  check t ~off ~len:(String.length s);
  touch t ~off ~len:(String.length s);
  Bytes.blit_string s 0 t.data off (String.length s)

let fill t ~off ~len c =
  check t ~off ~len;
  touch t ~off ~len;
  Bytes.fill t.data off len c

let write_u8 t ~off v =
  check t ~off ~len:1;
  touch t ~off ~len:1;
  Bytes.set t.data off (Char.chr (v land 0xFF))

let write_u16 t ~off v =
  check t ~off ~len:2;
  touch t ~off ~len:2;
  Bytes.set_uint16_le t.data off (v land 0xFFFF)

let write_u32 t ~off v =
  check t ~off ~len:4;
  touch t ~off ~len:4;
  Bytes.set_int32_le t.data off (Int32.of_int (v land 0xFFFFFFFF))

let write_u64 t ~off v =
  check t ~off ~len:8;
  touch t ~off ~len:8;
  Bytes.set_int64_le t.data off (Int64.of_int v)

(* A snapshot's flags are its written lines: [sync] left none stale, and
   it has no checkpoint. *)
let snapshot t =
  sync t;
  let written = Array.sub t.written 0 t.n_written in
  let flags = Bytes.make (n_lines t.size) '\000' in
  Array.iter (fun l -> Bytes.unsafe_set flags l (Char.unsafe_chr written_flag)) written;
  of_parts ~data:(Bytes.copy t.data) ~size:t.size ~line_hash:(Array.copy t.line_hash)
    ~root:t.root ~zero:t.zero ~flags ~written

(* Zero [t]'s written lines, then copy [from]'s: O(lines written in
   either), not O(size). Restoring an image from itself still closes its
   checkpoint, as restoring from an equal copy would. *)
let restore t ~from =
  if t.size <> from.size then Fault.fail "restore: size mismatch (%d vs %d)" t.size from.size;
  let from = if t == from then snapshot from else from in
  sync from;
  clear t;
  for i = 0 to from.n_written - 1 do
    let l = Array.unsafe_get from.written i in
    let off = l * line in
    Bytes.blit from.data off t.data off (min line (t.size - off));
    Array.unsafe_set t.line_hash l (Array.unsafe_get from.line_hash l);
    Bytes.unsafe_set t.flags l (Char.unsafe_chr written_flag);
    note_written t l
  done;
  t.root <- from.root

let equal a b =
  sync a;
  sync b;
  a.size = b.size && a.root = b.root && Bytes.equal a.data b.data

let hexdump ?(off = 0) ?len t =
  let len = match len with Some l -> l | None -> t.size - off in
  check t ~off ~len;
  let buf = Buffer.create (len * 4) in
  let rec go pos =
    if pos < off + len then begin
      let n = min 16 (off + len - pos) in
      Buffer.add_string buf (Printf.sprintf "%08x  " pos);
      for i = 0 to n - 1 do
        Buffer.add_string buf (Printf.sprintf "%02x " (Char.code (Bytes.get t.data (pos + i))))
      done;
      Buffer.add_char buf ' ';
      for i = 0 to n - 1 do
        let c = Bytes.get t.data (pos + i) in
        Buffer.add_char buf (if c >= ' ' && c <= '~' then c else '.')
      done;
      Buffer.add_char buf '\n';
      go (pos + 16)
    end
  in
  go off;
  Buffer.contents buf
