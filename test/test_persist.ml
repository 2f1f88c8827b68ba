(* Tests for the persistence layer: trace recording semantics, cache-line
   widening of flushes, undo log, syscall markers and the in-flight vectors
   the harness walks them into. *)

module Pm = Persist.Pm
module Trace = Persist.Trace

let setup () =
  let img = Pmem.Image.create ~size:1024 in
  let pm = Pm.create img in
  let trace = Trace.create () in
  Pm.trace_to pm trace;
  (img, pm, trace)

let stores trace =
  Array.to_list (Trace.ops trace)
  |> List.filter_map (function Trace.Store s -> Some s | _ -> None)

let test_nt_store_logged () =
  let img, pm, trace = setup () in
  Pm.memcpy_nt pm ~off:100 "hello";
  Alcotest.(check string) "visible to reads" "hello" (Pmem.Image.read img ~off:100 ~len:5);
  match stores trace with
  | [ s ] ->
    Alcotest.(check int) "addr" 100 s.Trace.addr;
    Alcotest.(check string) "data" "hello" s.Trace.data;
    Alcotest.(check string) "func" "memcpy_nt" s.Trace.func
  | l -> Alcotest.failf "expected 1 store, got %d" (List.length l)

let test_cached_store_not_logged () =
  let _, pm, trace = setup () in
  Pm.store pm ~off:0 "volatile";
  Pm.fence pm;
  Alcotest.(check int) "only the fence is logged" 1 (Trace.length trace)

let test_flush_widens_to_lines () =
  let _, pm, trace = setup () in
  Pm.store pm ~off:70 "x";
  Pm.flush pm ~off:70 ~len:1;
  match stores trace with
  | [ s ] ->
    Alcotest.(check int) "line base" 64 s.Trace.addr;
    Alcotest.(check int) "line length" 64 (String.length s.Trace.data);
    Alcotest.(check char) "contains the store" 'x' s.Trace.data.[6]
  | l -> Alcotest.failf "expected 1 store, got %d" (List.length l)

let test_flush_clamped_at_device_end () =
  let _, pm, trace = setup () in
  Pm.store pm ~off:1020 "ab";
  Pm.flush pm ~off:1020 ~len:2;
  match stores trace with
  | [ s ] -> Alcotest.(check int) "clamped" 1024 (s.Trace.addr + String.length s.Trace.data)
  | l -> Alcotest.failf "expected 1 store, got %d" (List.length l)

let test_unlogged_writes_keep_seq () =
  (* Writes made before a logger is armed (mkfs, say) must leave the
     sequence numbers where a logger armed throughout would. *)
  List.iter
    (fun g ->
      let run ~armed_first =
        let pm = Pm.create (Pmem.Image.create ~size:1000) in
        Pm.set_granularity pm g;
        let trace = Trace.create () in
        if armed_first then Pm.trace_to pm trace;
        Pm.memcpy_nt pm ~off:3 (String.make 21 'a');
        Pm.memset_nt pm ~off:100 ~len:0 'b';
        Pm.store pm ~off:130 "c";
        Pm.flush pm ~off:60 ~len:200;
        Pm.flush pm ~off:990 ~len:40;
        Pm.fence pm;
        Pm.trace_to pm trace;
        Pm.nt_u64 pm ~off:512 7;
        List.map (fun s -> s.Trace.seq) (stores trace)
      in
      let always = run ~armed_first:true and late = run ~armed_first:false in
      Alcotest.(check int) "the late-armed trace has the last store only" 1 (List.length late);
      Alcotest.(check (list int)) "same seq for it" [ List.nth always (List.length always - 1) ]
        late)
    [ Pm.Function_level; Pm.Instruction_level ]

(* The syscall markers bracket the stores of their call, and the crash
   points [Harness.walk] places at its fences carry the coalesced
   in-flight vectors: the first fence's three stores are two units (the
   first two are address-contiguous), the second fence's one store one. *)
let test_markers_and_epochs () =
  let _, pm, trace = setup () in
  Pm.mark_syscall_begin pm ~idx:0 ~descr:"creat /foo";
  Pm.memcpy_nt pm ~off:0 "a";
  Pm.memcpy_nt pm ~off:1 "a";
  Pm.memcpy_nt pm ~off:8 "b";
  Pm.fence pm;
  Pm.memcpy_nt pm ~off:16 "c";
  Pm.fence pm;
  Pm.mark_syscall_end pm ~idx:0 ~ret:0;
  let ops = Trace.ops trace in
  (match (ops.(0), ops.(Array.length ops - 1)) with
  | Trace.Syscall_begin { idx = 0; descr = "creat /foo" }, Trace.Syscall_end { idx = 0; ret = 0 }
    ->
    ()
  | _ -> Alcotest.fail "the syscall's markers open and close the trace");
  let phase = function
    | Chipmunk.Checker.Initial -> "initial"
    | Chipmunk.Checker.During i -> Printf.sprintf "during %d" i
    | Chipmunk.Checker.After i -> Printf.sprintf "after %d" i
  in
  let points = ref [] in
  Chipmunk.Harness.walk ~replay:(Pmem.Image.create ~size:1024) trace (fun p ->
      points :=
        (phase p.Chipmunk.Harness.phase, List.length p.Chipmunk.Harness.in_flight) :: !points);
  Alcotest.(check (list (pair string int)))
    "coalesced in-flight sizes per crash point"
    [ ("during 0", 2); ("during 0", 1); ("after 0", 0) ]
    (List.rev !points)

(* The checker undoes its own writes to a crash state through an image
   checkpoint: pre-images come back, and the checkpoint is closed after. *)
let test_undo_rollback () =
  let img = Pmem.Image.create ~size:256 in
  Pmem.Image.write_string img ~off:0 "original";
  Pmem.Image.checkpoint img;
  Pmem.Image.write_string img ~off:0 "clobber!";
  Pmem.Image.write_string img ~off:4 "zzzz";
  Alcotest.(check string) "mutated" "clobzzzz" (Pmem.Image.read img ~off:0 ~len:8);
  Pmem.Image.rollback img;
  Alcotest.(check string) "rolled back" "original" (Pmem.Image.read img ~off:0 ~len:8);
  Alcotest.check_raises "log empty: rollback closed the checkpoint"
    (Invalid_argument "Image.rollback: no checkpoint is open") (fun () ->
      Pmem.Image.rollback img);
  (* A new checkpoint starts with nothing saved: the old pre-images are
     not replayed over later writes. *)
  Pmem.Image.write_string img ~off:0 "kept";
  Pmem.Image.checkpoint img;
  Pmem.Image.rollback img;
  Alcotest.(check string) "nothing left to undo" "keptinal" (Pmem.Image.read img ~off:0 ~len:8)

let test_undo_via_pm () =
  let img = Pmem.Image.create ~size:256 in
  let pm = Pm.create img in
  Pm.memcpy_nt pm ~off:0 "base data here";
  let snap = Pmem.Image.snapshot img in
  Pmem.Image.checkpoint img;
  Pm.memcpy_nt pm ~off:0 "XXXX";
  Pm.memset_nt pm ~off:8 ~len:4 'y';
  Pm.store pm ~off:20 "zz";
  Pm.store_u64 pm ~off:60 (-1);
  Pmem.Image.rollback img;
  Alcotest.(check bool) "image restored" true (Pmem.Image.equal img snap)

let prop_undo_restores_exactly =
  QCheck.Test.make ~name:"undo restores arbitrary write sequences" ~count:200
    QCheck.(small_list (pair (int_bound 240) (string_of_size Gen.(1 -- 10))))
    (fun writes ->
      let img = Pmem.Image.create ~size:256 in
      for i = 0 to 255 do
        Pmem.Image.write_u8 img ~off:i (i * 7 mod 256)
      done;
      let snap = Pmem.Image.snapshot img in
      Pmem.Image.checkpoint img;
      List.iter
        (fun (off, s) ->
          if String.length s > 0 && off + String.length s <= 256 then
            Pmem.Image.write_string img ~off s)
        writes;
      Pmem.Image.rollback img;
      Pmem.Image.equal img snap)

let test_stats () =
  let _, pm, _ = setup () in
  Pm.memcpy_nt pm ~off:0 "abc";
  Pm.store pm ~off:10 "d";
  Pm.flush pm ~off:10 ~len:1;
  Pm.fence pm;
  let st = Pm.stats pm in
  Alcotest.(check int) "nt" 1 st.Pm.nt_calls;
  Alcotest.(check int) "flush" 1 st.Pm.flush_calls;
  Alcotest.(check int) "fence" 1 st.Pm.fence_calls;
  Alcotest.(check int) "cached" 1 st.Pm.cached_stores

let suite =
  [
    Alcotest.test_case "nt store logged with contents" `Quick test_nt_store_logged;
    Alcotest.test_case "cached store not logged until flushed" `Quick test_cached_store_not_logged;
    Alcotest.test_case "flush widens to cache lines" `Quick test_flush_widens_to_lines;
    Alcotest.test_case "flush clamped at device end" `Quick test_flush_clamped_at_device_end;
    Alcotest.test_case "unlogged writes advance seq" `Quick test_unlogged_writes_keep_seq;
    Alcotest.test_case "syscall markers and epochs" `Quick test_markers_and_epochs;
    Alcotest.test_case "undo rollback" `Quick test_undo_rollback;
    Alcotest.test_case "undo hooks into Pm writes" `Quick test_undo_via_pm;
    Alcotest.test_case "live stats" `Quick test_stats;
    QCheck_alcotest.to_alcotest prop_undo_restores_exactly;
  ]
