(* Unit and property tests for the PM device model. *)

module Image = Pmem.Image
module Const = Pmem.Const

let test_create_zeroed () =
  let img = Image.create ~size:256 in
  Alcotest.(check int) "size" 256 (Image.size img);
  Alcotest.(check string) "zeroed" (String.make 256 '\000') (Image.read img ~off:0 ~len:256)

let test_rw_roundtrip () =
  let img = Image.create ~size:256 in
  Image.write_string img ~off:10 "hello";
  Alcotest.(check string) "read back" "hello" (Image.read img ~off:10 ~len:5);
  Image.write_u64 img ~off:64 0x1122334455667788;
  Alcotest.(check int) "u64" 0x1122334455667788 (Image.read_u64 img ~off:64);
  Image.write_u32 img ~off:100 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Image.read_u32 img ~off:100);
  Image.write_u16 img ~off:104 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Image.read_u16 img ~off:104);
  Image.write_u8 img ~off:106 0xAB;
  Alcotest.(check int) "u8" 0xAB (Image.read_u8 img ~off:106)

let test_bounds () =
  let img = Image.create ~size:64 in
  let oob f = try f (); false with Pmem.Fault.Out_of_bounds _ -> true in
  Alcotest.(check bool) "read past end" true (oob (fun () -> ignore (Image.read img ~off:60 ~len:8)));
  Alcotest.(check bool) "negative off" true (oob (fun () -> ignore (Image.read img ~off:(-1) ~len:1)));
  Alcotest.(check bool) "write past end" true (oob (fun () -> Image.write_string img ~off:63 "xy"));
  Alcotest.(check bool) "u64 at end" true (oob (fun () -> ignore (Image.read_u64 img ~off:57)))

(* An offset near [max_int] (a corrupt on-media pointer) must fault as out
   of bounds, not overflow [off + len] into an in-range check and fail in
   the stdlib instead. *)
let test_bounds_overflow () =
  let img = Image.create ~size:4096 in
  let pm = Persist.Pm.create img in
  let off = max_int - 3 in
  let oob name f =
    match f () with
    | () -> Alcotest.failf "%s: no fault" name
    | exception Pmem.Fault.Out_of_bounds _ -> ()
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
  oob "read" (fun () -> ignore (Image.read img ~off ~len:8));
  oob "read_u64" (fun () -> ignore (Image.read_u64 img ~off));
  oob "write_string" (fun () -> Image.write_string img ~off "12345678");
  oob "fill" (fun () -> Image.fill img ~off ~len:8 'x');
  oob "Pm.flush" (fun () -> Persist.Pm.flush pm ~off ~len:8);
  oob "Pm.memcpy_nt" (fun () -> Persist.Pm.memcpy_nt pm ~off "12345678");
  Alcotest.(check bool) "image untouched" true (Image.equal img (Image.create ~size:4096))

let test_snapshot_restore () =
  let img = Image.create ~size:128 in
  Image.write_string img ~off:0 "abc";
  let snap = Image.snapshot img in
  Image.write_string img ~off:0 "xyz";
  Alcotest.(check bool) "diverged" false (Image.equal img snap);
  Image.restore img ~from:snap;
  Alcotest.(check bool) "restored" true (Image.equal img snap);
  Alcotest.(check string) "content" "abc" (Image.read img ~off:0 ~len:3)

let test_const () =
  Alcotest.(check int) "line_of" 1 (Const.line_of 64);
  Alcotest.(check int) "line_base" 64 (Const.line_base 127);
  Alcotest.(check bool) "aligned u64 atomic" true (Const.is_atomic ~off:8 ~len:8);
  Alcotest.(check bool) "crossing u64 not atomic" false (Const.is_atomic ~off:4 ~len:8);
  Alcotest.(check bool) "small write atomic" true (Const.is_atomic ~off:17 ~len:2);
  Alcotest.(check bool) "zero len not atomic" false (Const.is_atomic ~off:0 ~len:0)

let test_checksum () =
  Alcotest.(check int) "crc32 of empty" 0 (Pmem.Checksum.crc32 "");
  (* Known value for "123456789" per the CRC-32/IEEE test vector. *)
  Alcotest.(check int) "crc32 vector" 0xCBF43926 (Pmem.Checksum.crc32 "123456789");
  Alcotest.(check int) "sub matches whole"
    (Pmem.Checksum.crc32 "456")
    (Pmem.Checksum.crc32_sub "123456789" ~pos:3 ~len:3)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_hexdump () =
  let img = Image.create ~size:32 in
  Image.write_string img ~off:0 "AB";
  let dump = Pmem.Image.hexdump img in
  Alcotest.(check bool) "mentions bytes" true (contains ~sub:"41 42" dump)

let prop_snapshot_independent =
  QCheck.Test.make ~name:"snapshot is independent of later writes" ~count:100
    QCheck.(pair (int_bound 200) (string_of_size Gen.(1 -- 20)))
    (fun (off, s) ->
      let img = Image.create ~size:256 in
      let snap = Image.snapshot img in
      let off = min off (256 - String.length s - 1) in
      if String.length s = 0 then true
      else begin
        Image.write_string img ~off s;
        Image.read snap ~off ~len:(String.length s) = String.make (String.length s) '\000'
      end)

(* The zero state is memoized per size: a fresh or cleared image must
   still be what hashing it from scratch gives, at any size, including
   ones with a partial last cache line. *)
let prop_zero_memo =
  QCheck.Test.make ~name:"zero-image memo: create and clear agree with rehash" ~count:100
    QCheck.(
      pair (int_range 1 1000) (small_list (pair (int_bound 1000) (string_of_size Gen.(1 -- 80)))))
    (fun (size, writes) ->
      let img = Image.create ~size in
      let consistent () = Image.digest img = Image.rehash img in
      let write_all () =
        List.iter
          (fun (off, s) ->
            let len = min (String.length s) size in
            Image.write_string img ~off:(off mod (size - len + 1)) (String.sub s 0 len))
          writes
      in
      let fresh_ok = consistent () in
      write_all ();
      let written_ok = consistent () in
      Image.clear img;
      let cleared_ok = Image.equal img (Image.create ~size) && consistent () in
      (* Writes after a clear patch the zero state's line hashes. *)
      write_all ();
      fresh_ok && written_ok && cleared_ok && consistent ())

let prop_zero_memo_domains =
  QCheck.Test.make ~name:"zero-image memo: concurrent creates agree" ~count:30
    QCheck.(int_range 1 100_000)
    (fun size ->
      let spawn () = Domain.spawn (fun () -> Image.digest (Image.create ~size)) in
      let a = spawn () and b = spawn () in
      let da = Domain.join a and db = Domain.join b in
      da = db && da = Image.rehash (Image.create ~size))

(* Checkpoints and deferred line hashing against a model: a plain [Bytes]
   plus a copy taken at [checkpoint]. Sizes are never a multiple of the
   cache line, and offsets cluster on the first few lines so writes repeat
   on a line and cross line boundaries. *)
type op =
  | W_string of int * string
  | W_fill of int * int * char
  | W_int of int * int * int  (** width in bytes, offset, value *)
  | Checkpoint
  | Rollback
  | Digest
  | Snapshot
  | Restore
  | Clear

let show_op = function
  | W_string (o, s) -> Printf.sprintf "write_string %d %S" o s
  | W_fill (o, n, c) -> Printf.sprintf "fill %d %d %C" o n c
  | W_int (w, o, v) -> Printf.sprintf "write_u%d %d %d" (8 * w) o v
  | Checkpoint -> "checkpoint"
  | Rollback -> "rollback"
  | Digest -> "digest"
  | Snapshot -> "snapshot"
  | Restore -> "restore"
  | Clear -> "clear"

let gen_op =
  let open QCheck.Gen in
  let off =
    oneof [ map2 (fun l o -> (l * Const.cache_line) + o) (int_bound 3) (int_bound 63); nat ]
  in
  frequency
    [
      (4, map2 (fun o s -> W_string (o, s)) off (string_size ~gen:char (1 -- 150)));
      (2, map3 (fun o n c -> W_fill (o, n, c)) off (1 -- 130) char);
      (4, map3 (fun w o v -> W_int (w, o, v)) (oneofl [ 1; 2; 4; 8 ]) off int);
      (2, return Checkpoint);
      (2, return Rollback);
      (2, return Digest);
      (1, return Snapshot);
      (1, return Restore);
      (1, return Clear);
    ]

let arb_checkpoint_run =
  QCheck.make
    ~print:(fun (size, ops) ->
      Printf.sprintf "size %d: %s" size (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(
      pair
        (map2 (fun k r -> (k * Const.cache_line) + r) (int_bound 10) (1 -- (Const.cache_line - 1)))
        (list_size (1 -- 60) gen_op))

let prop_checkpoint_model =
  QCheck.Test.make ~name:"checkpoint: image agrees with a bytes model" ~count:500
    arb_checkpoint_run (fun (size, ops) ->
      let img = Image.create ~size in
      let model = Bytes.make size '\000' in
      let ckpt = ref None (* model bytes and digest at checkpoint *) in
      let snap = ref None (* image snapshot and its model bytes *) in
      let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
      (* Clamp a write of [len] bytes at [off] into the device. *)
      let place off len =
        let len = min len size in
        (off mod (size - len + 1), len)
      in
      List.iteri
        (fun step op ->
          let fail what = QCheck.Test.fail_reportf "step %d (%s): %s" step (show_op op) what in
          (match op with
          | W_string (off, s) ->
            let off, len = place off (String.length s) in
            let s = String.sub s 0 len in
            Image.write_string img ~off s;
            Bytes.blit_string s 0 model off len
          | W_fill (off, len, c) ->
            let off, len = place off len in
            Image.fill img ~off ~len c;
            Bytes.fill model off len c
          | W_int (w, off, v) ->
            if w <= size then begin
              let off, _ = place off w in
              (match w with
              | 1 -> Image.write_u8 img ~off v
              | 2 -> Image.write_u16 img ~off v
              | 4 -> Image.write_u32 img ~off v
              | _ -> Image.write_u64 img ~off v);
              for i = 0 to w - 1 do
                Bytes.set model (off + i) (Char.chr ((v asr (8 * i)) land 0xFF))
              done
            end
          | Checkpoint -> (
            match !ckpt with
            | Some _ ->
              if not (raises (fun () -> Image.checkpoint img)) then
                fail "nested checkpoint did not raise"
            | None ->
              let d = Image.rehash img in
              Image.checkpoint img;
              ckpt := Some (Bytes.copy model, d))
          | Rollback -> (
            match !ckpt with
            | None ->
              if not (raises (fun () -> Image.rollback img)) then
                fail "rollback with no checkpoint did not raise"
            | Some (bytes, d) ->
              Image.rollback img;
              Bytes.blit bytes 0 model 0 size;
              ckpt := None;
              if Image.digest img <> d then fail "rollback did not restore the digest")
          | Digest ->
            if Image.digest img <> Image.rehash img then fail "digest <> rehash"
          | Snapshot ->
            let s = Image.snapshot img in
            if not (Image.equal s img) then fail "snapshot differs from its source";
            snap := Some (s, Bytes.copy model)
          | Restore -> (
            match !snap with
            | None -> ()
            | Some (s, bytes) ->
              if Image.read s ~off:0 ~len:size <> Bytes.to_string bytes then
                fail "snapshot changed after it was taken";
              Image.restore img ~from:s;
              Bytes.blit bytes 0 model 0 size;
              ckpt := None)
          | Clear ->
            Image.clear img;
            Bytes.fill model 0 size '\000';
            ckpt := None);
          if Image.read img ~off:0 ~len:size <> Bytes.to_string model then
            fail "bytes differ from the model")
        ops;
      Image.digest img = Image.rehash img)

(* Two images against two bytes models, with [restore], [snapshot] and
   [clear] between them. Each image writes its own region (image 0 the
   first lines, image 1 later ones), so their written-line sets differ and
   a reset that missed a line of either shows as wrong bytes. After every
   step both images must match their models and their digests a
   rehash. *)
type op2 =
  | On of int * op  (** a write, checkpoint, rollback, digest or clear on one image *)
  | Snapshot_of of int * int  (** image [i] becomes a snapshot of image [j] *)
  | Restore_from of int * int  (** restore image [i] from image [j] *)

let show_op2 = function
  | On (i, op) -> Printf.sprintf "%d: %s" i (show_op op)
  | Snapshot_of (i, j) -> Printf.sprintf "%d := snapshot %d" i j
  | Restore_from (i, j) -> Printf.sprintf "restore %d from %d" i j

let gen_op2 =
  let open QCheck.Gen in
  let off i = map2 (fun l o -> ((l + (4 * i)) * Const.cache_line) + o) (int_bound 3) (int_bound 63) in
  let local i =
    frequency
      [
        (4, map2 (fun o s -> W_string (o, s)) (off i) (string_size ~gen:char (1 -- 100)));
        (2, map3 (fun o n c -> W_fill (o, n, c)) (off i) (1 -- 100) char);
        (3, map3 (fun w o v -> W_int (w, o, v)) (oneofl [ 1; 2; 4; 8 ]) (off i) int);
        (2, return Checkpoint);
        (2, return Rollback);
        (1, return Digest);
        (1, return Clear);
      ]
  in
  let img = int_bound 1 in
  frequency
    [
      (8, img >>= fun i -> map (fun op -> On (i, op)) (local i));
      (1, map2 (fun i j -> Snapshot_of (i, j)) img img);
      (2, map2 (fun i j -> Restore_from (i, j)) img img);
    ]

let prop_two_image_model =
  QCheck.Test.make ~name:"restore/snapshot/clear between two images agree with bytes models"
    ~count:300
    (QCheck.make
       ~print:(fun (size, ops) ->
         Printf.sprintf "size %d: %s" size (String.concat "; " (List.map show_op2 ops)))
       QCheck.Gen.(
         pair
           (map2 (fun k r -> (k * Const.cache_line) + r) (8 -- 12) (1 -- (Const.cache_line - 1)))
           (list_size (1 -- 60) gen_op2)))
    (fun (size, ops) ->
      let imgs = [| Image.create ~size; Image.create ~size |] in
      let models = [| Bytes.make size '\000'; Bytes.make size '\000' |] in
      let ckpts = [| None; None |] (* model bytes at checkpoint *) in
      let place off len =
        let len = min len size in
        (off mod (size - len + 1), len)
      in
      List.iteri
        (fun step op ->
          let fail what = QCheck.Test.fail_reportf "step %d (%s): %s" step (show_op2 op) what in
          (match op with
          | On (i, W_string (off, s)) ->
            let off, len = place off (String.length s) in
            Image.write_string imgs.(i) ~off (String.sub s 0 len);
            Bytes.blit_string s 0 models.(i) off len
          | On (i, W_fill (off, len, c)) ->
            let off, len = place off len in
            Image.fill imgs.(i) ~off ~len c;
            Bytes.fill models.(i) off len c
          | On (i, W_int (w, off, v)) ->
            let off, _ = place off w in
            (match w with
            | 1 -> Image.write_u8 imgs.(i) ~off v
            | 2 -> Image.write_u16 imgs.(i) ~off v
            | 4 -> Image.write_u32 imgs.(i) ~off v
            | _ -> Image.write_u64 imgs.(i) ~off v);
            for k = 0 to w - 1 do
              Bytes.set models.(i) (off + k) (Char.chr ((v asr (8 * k)) land 0xFF))
            done
          | On (i, Checkpoint) ->
            if ckpts.(i) = None then begin
              Image.checkpoint imgs.(i);
              ckpts.(i) <- Some (Bytes.copy models.(i))
            end
          | On (i, Rollback) -> (
            match ckpts.(i) with
            | None -> ()
            | Some bytes ->
              Image.rollback imgs.(i);
              models.(i) <- bytes;
              ckpts.(i) <- None)
          | On (i, Clear) ->
            Image.clear imgs.(i);
            models.(i) <- Bytes.make size '\000';
            ckpts.(i) <- None
          | On (_, (Digest | Snapshot | Restore)) -> ()
          | Snapshot_of (i, j) ->
            imgs.(i) <- Image.snapshot imgs.(j);
            models.(i) <- Bytes.copy models.(j);
            ckpts.(i) <- None
          | Restore_from (i, j) ->
            Image.restore imgs.(i) ~from:imgs.(j);
            models.(i) <- Bytes.copy models.(j);
            ckpts.(i) <- None);
          Array.iteri
            (fun i img ->
              if Image.read img ~off:0 ~len:size <> Bytes.to_string models.(i) then
                fail (Printf.sprintf "image %d bytes differ from its model" i);
              if Image.digest img <> Image.rehash img then
                fail (Printf.sprintf "image %d: digest <> rehash" i))
            imgs)
        ops;
      true)

let suite =
  [
    Alcotest.test_case "create zeroed" `Quick test_create_zeroed;
    Alcotest.test_case "read/write roundtrip" `Quick test_rw_roundtrip;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "bounds checking near max_int" `Quick test_bounds_overflow;
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    Alcotest.test_case "constants" `Quick test_const;
    Alcotest.test_case "crc32" `Quick test_checksum;
    Alcotest.test_case "hexdump" `Quick test_hexdump;
    QCheck_alcotest.to_alcotest prop_snapshot_independent;
    QCheck_alcotest.to_alcotest prop_zero_memo;
    QCheck_alcotest.to_alcotest prop_zero_memo_domains;
    QCheck_alcotest.to_alcotest prop_checkpoint_model;
    QCheck_alcotest.to_alcotest prop_two_image_model;
  ]
