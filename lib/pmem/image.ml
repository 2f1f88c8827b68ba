(* The image maintains an incremental content digest alongside the bytes: a
   64-bit-ish (63-bit native int) FNV-style hash per cache line, folded into a
   rolling root by commutative addition. Every mutation rehashes only the
   touched lines and patches the root (subtract old line hash, add new), so
   digesting a crash state costs O(lines dirtied by the in-flight writes)
   rather than O(device size). The digest is a pure function of the byte
   contents — restoring bytes (e.g. Persist.Undo.rollback writing back
   pre-images through [write_string]) restores the digest by construction. *)

type t = {
  data : Bytes.t;
  size : int;
  line_hash : int array;
  mutable root : int;
}

(* FNV-1a offset basis / prime, basis truncated to fit OCaml's 63-bit int;
   the per-line seed mixes the line index in so identical lines at different
   offsets hash differently (the rolling root is a plain sum, so without the
   index mix swapping two equal-length regions would collide). *)
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
  !h

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

let create ~size =
  let line_hash, root = zero_state size in
  { data = Bytes.make size '\000'; size; line_hash = Array.copy line_hash; root }

let clear t =
  let line_hash, root = zero_state t.size in
  Bytes.fill t.data 0 t.size '\000';
  Array.blit line_hash 0 t.line_hash 0 (Array.length line_hash);
  t.root <- root

let size t = t.size

let check t ~off ~len =
  if off < 0 || len < 0 || off + len > t.size then
    Fault.out_of_bounds ~off ~len ~size:t.size

(* Rehash the lines intersecting [off, off+len) and patch the root. Call
   after the bytes have been mutated; bounds are already checked. *)
let touch t ~off ~len =
  if len > 0 then begin
    let l0 = off / Const.cache_line and l1 = (off + len - 1) / Const.cache_line in
    for l = l0 to l1 do
      let h = hash_line t.data t.size l in
      t.root <- t.root - Array.unsafe_get t.line_hash l + h;
      Array.unsafe_set t.line_hash l h
    done
  end

let digest t = t.root lxor (t.size * fnv_prime)

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
  Bytes.blit_string s 0 t.data off (String.length s);
  touch t ~off ~len:(String.length s)

let fill t ~off ~len c =
  check t ~off ~len;
  Bytes.fill t.data off len c;
  touch t ~off ~len

let write_u8 t ~off v =
  check t ~off ~len:1;
  Bytes.set t.data off (Char.chr (v land 0xFF));
  touch t ~off ~len:1

let write_u16 t ~off v =
  check t ~off ~len:2;
  Bytes.set_uint16_le t.data off (v land 0xFFFF);
  touch t ~off ~len:2

let write_u32 t ~off v =
  check t ~off ~len:4;
  Bytes.set_int32_le t.data off (Int32.of_int (v land 0xFFFFFFFF));
  touch t ~off ~len:4

let write_u64 t ~off v =
  check t ~off ~len:8;
  Bytes.set_int64_le t.data off (Int64.of_int v);
  touch t ~off ~len:8

let snapshot t =
  {
    data = Bytes.copy t.data;
    size = t.size;
    line_hash = Array.copy t.line_hash;
    root = t.root;
  }

let restore t ~from =
  if t.size <> from.size then Fault.fail "restore: size mismatch (%d vs %d)" t.size from.size;
  Bytes.blit from.data 0 t.data 0 t.size;
  Array.blit from.line_hash 0 t.line_hash 0 (Array.length t.line_hash);
  t.root <- from.root

let equal a b = a.size = b.size && a.root = b.root && Bytes.equal a.data b.data

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
