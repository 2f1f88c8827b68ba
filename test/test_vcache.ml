(* Tests for the cross-workload verdict cache and the incremental image
   digest underneath it: digest maintenance under every mutation path
   (including undo-log rollback), cache transparency (findings identical
   with the cache on or off, at any job count), and the record/replay
   split of the harness. *)

module Campaign = Chipmunk.Campaign
module Harness = Chipmunk.Harness
module Vcache = Chipmunk.Vcache
module Image = Pmem.Image
module R = Chipmunk.Report

(* --- Incremental image digest --- *)

let test_digest_matches_rehash_randomized () =
  (* A size that ends mid-line, so the partial-last-line path is exercised
     by every op that lands near the end. *)
  let size = 4096 + 13 in
  let img = Image.create ~size in
  Alcotest.(check int) "fresh image: incremental == from-scratch"
    (Image.rehash img) (Image.digest img);
  let rng = Random.State.make [| 0x51ca7 |] in
  for step = 1 to 500 do
    let off = Random.State.int rng size in
    let len = 1 + Random.State.int rng (min 200 (size - off)) in
    (match Random.State.int rng 6 with
    | 0 ->
      Image.write_string img ~off
        (String.init len (fun _ -> Char.chr (Random.State.int rng 256)))
    | 1 -> Image.fill img ~off ~len (Char.chr (Random.State.int rng 256))
    | 2 -> Image.write_u8 img ~off (Random.State.int rng 256)
    | 3 when off + 2 <= size -> Image.write_u16 img ~off (Random.State.int rng 65536)
    | 4 when off + 4 <= size -> Image.write_u32 img ~off (Random.State.bits rng)
    | 5 when off + 8 <= size -> Image.write_u64 img ~off (Random.State.bits rng)
    | _ -> Image.write_u8 img ~off (Random.State.int rng 256));
    if step mod 25 = 0 then
      Alcotest.(check int)
        (Printf.sprintf "step %d: incremental == from-scratch" step)
        (Image.rehash img) (Image.digest img)
  done;
  Alcotest.(check int) "final: incremental == from-scratch" (Image.rehash img)
    (Image.digest img)

let test_digest_content_pure () =
  (* Equal bytes imply equal digests, however they were written. *)
  let a = Image.create ~size:512 and b = Image.create ~size:512 in
  Image.write_u32 a ~off:100 0xdeadbeef;
  Image.write_string b ~off:100 "\xef\xbe\xad\xde";
  Alcotest.(check bool) "u32 == equivalent string write" true (Image.equal a b);
  Alcotest.(check int) "same digest" (Image.digest a) (Image.digest b);
  Image.write_u64 a ~off:64 0x0102030405060708;
  Image.write_string b ~off:64 "\x08\x07\x06\x05\x04\x03\x02\x01";
  Alcotest.(check int) "u64 == equivalent string write" (Image.digest a) (Image.digest b);
  (* And a detour through different intermediate contents converges. *)
  Image.fill a ~off:0 ~len:32 'x';
  Image.fill a ~off:0 ~len:32 '\000';
  Alcotest.(check int) "overwritten detour converges" (Image.digest a) (Image.digest b)

let test_digest_snapshot_restore () =
  let img = Image.create ~size:1024 in
  Image.write_string img ~off:7 "snapshot me";
  let d0 = Image.digest img in
  let snap = Image.snapshot img in
  Alcotest.(check int) "snapshot carries the digest" d0 (Image.digest snap);
  Image.fill img ~off:0 ~len:1024 '\xff';
  Alcotest.(check bool) "mutation moves the digest" true (Image.digest img <> d0);
  Image.restore img ~from:snap;
  Alcotest.(check int) "restore brings it back" d0 (Image.digest img);
  Alcotest.(check int) "and it matches a rehash" (Image.rehash img) (Image.digest img)

let test_digest_undo_rollback () =
  (* The harness relies on rollback restoring the digest exactly: the dedup
     key of state N must not be perturbed by the check of state N-1. *)
  let size = 2048 + 5 in
  let img = Image.create ~size in
  let rng = Random.State.make [| 0xf00d |] in
  for _ = 1 to 40 do
    let off = Random.State.int rng size in
    Image.write_u8 img ~off (Random.State.int rng 256)
  done;
  let d0 = Image.digest img in
  Image.checkpoint img;
  for _ = 1 to 100 do
    let off = Random.State.int rng size in
    let len = 1 + Random.State.int rng (min 100 (size - off)) in
    Image.write_string img ~off
      (String.init len (fun _ -> Char.chr (Random.State.int rng 256)))
  done;
  Alcotest.(check int) "mutated digest still incremental" (Image.rehash img)
    (Image.digest img);
  Image.rollback img;
  Alcotest.(check int) "rollback restores the digest" d0 (Image.digest img);
  Alcotest.(check int) "restored digest matches a rehash" (Image.rehash img)
    (Image.digest img)

(* --- Vcache unit behaviour --- *)

let test_vcache_find_add_shared () =
  let c = Vcache.create () in
  let k = Vcache.key ~fs:"nova" ~image_digest:42 ~phase_digest:"abc" in
  Alcotest.(check bool) "empty cache misses" true (Vcache.find c k = None);
  Alcotest.(check int) "empty cache has no entries" 0 (Vcache.entries c);
  Vcache.add c k [];
  Alcotest.(check bool) "consistent verdict cached as Some []" true
    (Vcache.find c k = Some []);
  Alcotest.(check int) "entries counts the add at once" 1 (Vcache.entries c);
  Vcache.add c k [ R.Unusable "later" ];
  Alcotest.(check bool) "first verdict wins" true (Vcache.find c k = Some []);
  (* Another domain sees the entry with no sync step, and its adds are
     visible back here. *)
  let k' = Vcache.key ~fs:"nova" ~image_digest:43 ~phase_digest:"abc" in
  let seen =
    Domain.join
      (Domain.spawn (fun () ->
           let v = Vcache.find c k in
           Vcache.add c k' [];
           v))
  in
  Alcotest.(check bool) "fresh domain hits" true (seen = Some []);
  Alcotest.(check bool) "its add is visible here" true (Vcache.find c k' = Some []);
  Alcotest.(check int) "two entries" 2 (Vcache.entries c)

let test_vcache_key_separates () =
  (* The key must separate file systems and phases even at equal digests. *)
  let k1 = Vcache.key ~fs:"nova" ~image_digest:7 ~phase_digest:"p" in
  let k2 = Vcache.key ~fs:"pmfs" ~image_digest:7 ~phase_digest:"p" in
  let k3 = Vcache.key ~fs:"nova" ~image_digest:7 ~phase_digest:"q" in
  let k4 = Vcache.key ~fs:"nova" ~image_digest:8 ~phase_digest:"p" in
  let all = [ k1; k2; k3; k4 ] in
  Alcotest.(check int) "four distinct keys" 4
    (List.length (List.sort_uniq compare all))

(* --- Cache transparency: findings identical on/off, at any job count --- *)

let nova_buggy () =
  match Catalog.buggy_driver "nova" with
  | Some mk -> mk ()
  | None -> Alcotest.fail "no buggy nova driver"

let ace_slice () = Seq.take 40 (Ace.seq1 Ace.Strong)

let event_key (e : Campaign.event) =
  (e.Campaign.fingerprint, e.Campaign.workload_index, e.Campaign.workload_name)

let run_ace ~use_vcache ~jobs =
  Campaign.run
    ~exec:(Chipmunk.Run.exec ~use_vcache ~jobs ())
    (nova_buggy ()) (ace_slice ())

let test_campaign_vcache_transparent () =
  let on = run_ace ~use_vcache:true ~jobs:1 in
  let off = run_ace ~use_vcache:false ~jobs:1 in
  Alcotest.(check bool) "slice finds something" true (on.Campaign.events <> []);
  Alcotest.(check (list (triple string int string)))
    "same findings with the cache on and off"
    (List.map event_key off.Campaign.events)
    (List.map event_key on.Campaign.events);
  Alcotest.(check int) "same enumerated states" off.Campaign.crash_states
    on.Campaign.crash_states;
  Alcotest.(check int) "same crash points" off.Campaign.crash_points
    on.Campaign.crash_points;
  Alcotest.(check int) "cache off never hits" 0 off.Campaign.vcache_hits;
  Alcotest.(check bool)
    (Printf.sprintf "cache on hits across workloads (%d of %d states)"
       on.Campaign.vcache_hits on.Campaign.crash_states)
    true (on.Campaign.vcache_hits > 0)

let test_campaign_vcache_parallel_deterministic () =
  let j1 = run_ace ~use_vcache:true ~jobs:1 in
  let j4 = run_ace ~use_vcache:true ~jobs:4 in
  Alcotest.(check (list (triple string int string)))
    "jobs=1 and jobs=4 agree finding-for-finding"
    (List.map event_key j1.Campaign.events)
    (List.map event_key j4.Campaign.events);
  Alcotest.(check int) "same workload count" j1.Campaign.workloads_run
    j4.Campaign.workloads_run;
  Alcotest.(check int) "same crash states" j1.Campaign.crash_states j4.Campaign.crash_states;
  Alcotest.(check int) "same dedup hits" j1.Campaign.dedup_hits j4.Campaign.dedup_hits

let test_harness_vcache_second_run_hits () =
  (* Two identical workloads through one cache: the second is answered
     almost entirely from the first's verdicts, with identical reports. *)
  let b =
    match List.find_opt (fun (b : Catalog.t) -> b.Catalog.fs = "NOVA") Catalog.all with
    | Some b -> b
    | None -> Alcotest.fail "no NOVA bug in the catalog"
  in
  let driver = b.Catalog.driver () in
  let vcache = Vcache.create () in
  let r1 = Harness.test_workload ~vcache driver b.Catalog.trigger in
  let r2 = Harness.test_workload ~vcache driver b.Catalog.trigger in
  Alcotest.(check (list string)) "same reports both times"
    (List.map R.fingerprint r1.Harness.reports)
    (List.map R.fingerprint r2.Harness.reports)
    ;
  Alcotest.(check bool)
    (Printf.sprintf "second run served from the cache (%d hits)"
       r2.Harness.stats.Harness.vcache_hits)
    true (r2.Harness.stats.Harness.vcache_hits > 0);
  Alcotest.(check bool) "cache holds entries" true (Vcache.entries vcache > 0)

(* --- record / replay_recorded split --- *)

let test_replay_recorded_equals_test_workload () =
  List.iter
    (fun (b : Catalog.t) ->
      let driver = b.Catalog.driver () in
      let direct = Harness.test_workload driver b.Catalog.trigger in
      let recording = Harness.record driver b.Catalog.trigger in
      let replayed = Harness.replay_recorded driver recording in
      let again = Harness.replay_recorded driver recording in
      Alcotest.(check (list string))
        (Printf.sprintf "bug %d (%s): replay_recorded == test_workload" b.Catalog.bug_no
           b.Catalog.fs)
        (List.map R.fingerprint direct.Harness.reports)
        (List.map R.fingerprint replayed.Harness.reports);
      Alcotest.(check (list string))
        (Printf.sprintf "bug %d (%s): recording reusable" b.Catalog.bug_no b.Catalog.fs)
        (List.map R.fingerprint replayed.Harness.reports)
        (List.map R.fingerprint again.Harness.reports))
    (List.filteri (fun i _ -> i < 6) Catalog.all)

let suite =
  [
    Alcotest.test_case "digest: incremental == rehash under random writes" `Quick
      test_digest_matches_rehash_randomized;
    Alcotest.test_case "digest: pure function of the bytes" `Quick test_digest_content_pure;
    Alcotest.test_case "digest: snapshot/restore preserve it" `Quick
      test_digest_snapshot_restore;
    Alcotest.test_case "digest: undo rollback restores it exactly" `Quick
      test_digest_undo_rollback;
    Alcotest.test_case "vcache: find/add shared across domains" `Quick test_vcache_find_add_shared;
    Alcotest.test_case "vcache: key separates fs/phase/digest" `Quick test_vcache_key_separates;
    Alcotest.test_case "campaign: findings identical with vcache on/off" `Quick
      test_campaign_vcache_transparent;
    Alcotest.test_case "campaign: vcache keeps jobs=1 == jobs=4" `Quick
      test_campaign_vcache_parallel_deterministic;
    Alcotest.test_case "harness: repeated workload served from cache" `Quick
      test_harness_vcache_second_run_hits;
    Alcotest.test_case "harness: replay_recorded == test_workload" `Quick
      test_replay_recorded_equals_test_workload;
  ]
