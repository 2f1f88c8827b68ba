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

let suite =
  [
    Alcotest.test_case "create zeroed" `Quick test_create_zeroed;
    Alcotest.test_case "read/write roundtrip" `Quick test_rw_roundtrip;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    Alcotest.test_case "constants" `Quick test_const;
    Alcotest.test_case "crc32" `Quick test_checksum;
    Alcotest.test_case "hexdump" `Quick test_hexdump;
    QCheck_alcotest.to_alcotest prop_snapshot_independent;
    QCheck_alcotest.to_alcotest prop_zero_memo;
    QCheck_alcotest.to_alcotest prop_zero_memo_domains;
  ]
