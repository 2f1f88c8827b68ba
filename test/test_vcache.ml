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
module Oracle = Chipmunk.Oracle
module Checker = Chipmunk.Checker

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
  (* The harness relies on rollback restoring the digest exactly: the cache
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

(* [Vcache.verdict c k v] with a [run] that must not be called. *)
let cached c k = Vcache.verdict c k (fun () -> Alcotest.fail "a hit ran the check")

let test_vcache_verdict_shared () =
  let c = Vcache.create () in
  let k = (Vcache.phase_id c (Vcache.Initial 1), 42) in
  Alcotest.(check int) "empty cache has no entries" 0 (Vcache.entries c);
  let runs = ref 0 in
  let run v () =
    incr runs;
    v
  in
  Alcotest.(check bool) "a miss returns the check's verdict" true
    (Vcache.verdict c k (run []) = ([], false));
  Alcotest.(check int) "a miss runs the check once" 1 !runs;
  Alcotest.(check bool) "consistent verdict cached as []" true (cached c k = ([], true));
  Alcotest.(check int) "entries counts the key at once" 1 (Vcache.entries c);
  (* Another domain sees the entry with no sync step, and its verdicts
     are visible back here. *)
  let k' = (fst k, 43) in
  let seen =
    Domain.join
      (Domain.spawn (fun () ->
           let v = cached c k in
           ignore (Vcache.verdict c k' (run []));
           v))
  in
  Alcotest.(check bool) "fresh domain hits" true (seen = ([], true));
  Alcotest.(check bool) "its verdict is visible here" true (cached c k' = ([], true));
  (* Two domains miss on one key: the verdict stored first wins, also
     for the domain whose check finished last. *)
  let k'' = (fst k, 44) and first = [ (R.Unusable "first", "fp1") ] in
  let raced =
    Vcache.verdict c k'' (fun () ->
        ignore (Domain.join (Domain.spawn (fun () -> Vcache.verdict c k'' (run first))));
        [ (R.Unusable "later", "fp2") ])
  in
  Alcotest.(check bool) "first verdict wins a race" true (raced = (first, false));
  Alcotest.(check bool) "and stays cached" true (cached c k'' = (first, true));
  Alcotest.(check int) "each counted miss ran its check once" 3 !runs;
  Alcotest.(check int) "entries counts each key once" 3 (Vcache.entries c)

let test_vcache_equal_verdicts_shared () =
  (* Equal verdicts under different keys are one value. *)
  let c = Vcache.create () in
  let p = Vcache.phase_id c (Vcache.Initial 3) in
  let make () = [ (R.Torn_data { path = "/f"; detail = String.make 2 'x' }, "fp" ^ "1") ] in
  let a, _ = Vcache.verdict c (p, 1) make and b, _ = Vcache.verdict c (p, 2) make in
  Alcotest.(check bool) "structurally equal" true (a = b);
  Alcotest.(check bool) "physically shared" true (a == b);
  Alcotest.(check bool) "a hit returns the shared value" true (fst (cached c (p, 2)) == a);
  let other, _ = Vcache.verdict c (p, 3) (fun () -> [ (R.Unusable "y", "fp2") ]) in
  Alcotest.(check bool) "distinct verdicts stay apart" true (other <> a)

let test_vcache_key_separates () =
  (* Phase ids intern phase keys: equal keys share an id, distinct keys
     do not. The int-pair key must then separate phases at equal image
     digests, and image digests at equal phases. *)
  let c = Vcache.create () in
  let p = Vcache.phase_id c (Vcache.During ("mkdir /d", 1, 2))
  and q = Vcache.phase_id c (Vcache.During ("mkdir /e", 1, 2)) in
  Alcotest.(check bool) "distinct phase keys, distinct ids" true (p <> q);
  Alcotest.(check int) "equal phase keys, equal ids" p
    (Vcache.phase_id c (Vcache.During ("mkdir /d", 1, 2)));
  List.iteri
    (fun i k ->
      ignore (Vcache.verdict c k (fun () -> [ (R.Unusable (string_of_int i), string_of_int i) ])))
    [ (p, 7); (q, 7); (p, 8) ];
  Alcotest.(check int) "three distinct entries" 3 (Vcache.entries c);
  Alcotest.(check bool) "equal parts, equal key" true
    (cached c (p, 7) = ([ (R.Unusable "0", "0") ], true))

(* [Vcache.phase_key] over oracles built from chosen parts: changing any
   one part the checker reads at a phase changes that phase's key, and
   the cache keeps the keys apart; equal parts give equal keys, whatever
   the call's index. *)
let test_phase_key_parts () =
  let oracle digests targets =
    Oracle.make
      ~trees:(Array.map (fun _ -> []) digests)
      ~digests ~targets
      ~rets:(Array.map (fun _ -> 0) targets)
  in
  let key ?(texts = [| "creat /f"; "fsync 0" |]) ?(digests = [| 10; 20; 30 |])
      ?(targets = [| None; Some "/f" |]) phase =
    Vcache.phase_key (oracle digests targets) ~text:(Array.get texts) phase
  in
  let d0 = Checker.During 0 and a0 = Checker.After 0 and a1 = Checker.After 1 in
  let differ what a b = if a = b then Alcotest.failf "%s: keys equal" what in
  let same what a b = if a <> b then Alcotest.failf "%s: keys differ" what in
  differ "During, call text" (key d0) (key ~texts:[| "creat /g"; "fsync 0" |] d0);
  differ "During, pre digest" (key d0) (key ~digests:[| 11; 20; 30 |] d0);
  differ "During, post digest" (key d0) (key ~digests:[| 10; 21; 30 |] d0);
  differ "After, call text" (key a1) (key ~texts:[| "creat /f"; "fsync 1" |] a1);
  differ "After, post digest" (key a0) (key ~digests:[| 10; 21; 30 |] a0);
  differ "After, target Some vs None" (key a1) (key ~targets:[| None; None |] a1);
  differ "After, target path" (key a1) (key ~targets:[| None; Some "/g" |] a1);
  differ "Initial, digest" (key Checker.Initial) (key ~digests:[| 11; 20; 30 |] Checker.Initial);
  same "After reads no pre digest" (key a0) (key ~digests:[| 11; 20; 30 |] a0);
  same "During reads no target" (key (Checker.During 1))
    (key ~targets:[| None; None |] (Checker.During 1));
  same "equal parts at another index" (key d0)
    (key ~texts:[| "mkdir /a"; "creat /f" |] ~digests:[| 0; 10; 20 |] (Checker.During 1));
  (* Equal numbers in every field: the phase kind alone tells them apart. *)
  let flat = key ~texts:[| "x" |] ~digests:[| 5; 5 |] ~targets:[| None |] in
  let kinds = [ flat Checker.Initial; flat d0; flat a0 ] in
  Alcotest.(check int) "Initial, During, After distinct" 3
    (List.length (List.sort_uniq compare kinds));
  (* The cache keeps every distinct key apart at one image digest. *)
  let keys =
    List.sort_uniq compare
      (kinds
      @ [
          key d0;
          key ~texts:[| "creat /g"; "fsync 0" |] d0;
          key ~digests:[| 11; 20; 30 |] d0;
          key ~digests:[| 10; 21; 30 |] d0;
          key a1;
          key ~targets:[| None; None |] a1;
          key ~targets:[| None; Some "/g" |] a1;
        ])
  in
  Alcotest.(check int) "ten distinct keys" 10 (List.length keys);
  let c = Vcache.create () in
  let ids = List.map (Vcache.phase_id c) keys in
  Alcotest.(check int) "one id per key" 10 (List.length (List.sort_uniq compare ids));
  let verdict i = [ (R.Unusable (string_of_int i), string_of_int i) ] in
  List.iteri (fun i id -> ignore (Vcache.verdict c (id, 7) (fun () -> verdict i))) ids;
  Alcotest.(check int) "one entry per key" 10 (Vcache.entries c);
  List.iteri
    (fun i k ->
      match cached c (Vcache.phase_id c k, 7) with
      | v, true when v = verdict i -> ()
      | _ -> Alcotest.failf "key %d: another key's entry" i)
    keys

(* --- Call-prefix trie: the same oracle as Oracle.run --- *)

(* One trie fed every ACE seq-1 and seq-2 workload in a shuffled order,
   then the first 512 programs of a seed-1 fuzz run: for each program it
   must return exactly the boundary trees, digests, call targets and
   returns [Oracle.run] computes, the same phase keys over the calls'
   texts, and for every phase the id of [Oracle.run]'s phase key. *)
let test_trie_matches_oracle_run () =
  let ace = Array.of_seq (Seq.map snd (Seq.append (Ace.seq1 Ace.Strong) (Ace.seq2 Ace.Strong))) in
  let rng = Random.State.make [| 18 |] in
  for i = Array.length ace - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = ace.(i) in
    ace.(i) <- ace.(j);
    ace.(j) <- t
  done;
  let fuzz, _, _ = Helpers.fuzz_replica ~seed:1 ~execs:512 in
  let vc = Vcache.create () in
  let reused = ref 0 and boundaries = ref 0 in
  List.iteri
    (fun k calls ->
      let p = Vcache.program vc calls and o = Oracle.run calls in
      let q = Vcache.oracle p in
      let n = List.length calls in
      let fail what = Alcotest.failf "program %d (%s): %s differ" k (Fuzz.Prog.to_string calls) what in
      if Oracle.n_calls q <> n then fail "call counts";
      for b = 0 to n do
        if Oracle.pre q b <> Oracle.pre o b then fail (Printf.sprintf "boundary %d trees" b);
        if Oracle.pre_digest q b <> Oracle.pre_digest o b then
          fail (Printf.sprintf "boundary %d digests" b)
      done;
      let texts = Array.of_list (List.map Vfs.Syscall.to_string calls) in
      let same_key phase =
        let key = Vcache.phase_key o ~text:(Array.get texts) phase in
        Vcache.phase_key q ~text:(Array.get texts) phase = key
        && Vcache.phase p phase = Vcache.phase_id vc key
      in
      if not (same_key Checker.Initial) then fail "initial keys";
      for i = 0 to n - 1 do
        if Oracle.target q i <> Oracle.target o i then fail (Printf.sprintf "call %d targets" i);
        if Oracle.ret q i <> Oracle.ret o i then fail (Printf.sprintf "call %d returns" i);
        if not (same_key (Checker.During i) && same_key (Checker.After i)) then
          fail (Printf.sprintf "call %d phase keys" i)
      done;
      reused := !reused + Vcache.reused p;
      boundaries := !boundaries + n + 1)
    (Array.to_list ace @ fuzz);
  Alcotest.(check bool)
    (Printf.sprintf "most boundaries served by the trie (%d of %d)" !reused !boundaries)
    true
    (2 * !reused > !boundaries)

(* Two domains resolve the same new program at once, each round a
   program no earlier round shares a call with: whichever links its
   nodes first, both get the same phase ids (interned outside the trie
   lock), equal to those of [Oracle.run]'s keys, and the trie counts
   each prefix once (the later domain keeps the nodes the other
   linked). *)
let test_trie_concurrent_program () =
  let module S = Vfs.Syscall in
  let vc = Vcache.create () in
  let rounds = 16 and len = 12 in
  for r = 1 to rounds do
    let d = Printf.sprintf "/r%d" r in
    let calls =
      S.Mkdir { path = d }
      :: S.Creat { path = d ^ "/f"; fd_var = 0 }
      :: List.concat
           (List.init ((len - 2) / 2) (fun j ->
                [ S.Write { fd_var = 0; data = { S.seed = r + j; len = 64 } }; S.Fsync { fd_var = 0 } ]))
    in
    let go = Atomic.make 0 in
    let resolve () =
      Atomic.incr go;
      while Atomic.get go < 2 do
        Domain.cpu_relax ()
      done;
      Vcache.program vc calls
    in
    let other = Domain.spawn resolve in
    let p = resolve () in
    let q = Domain.join other in
    let o = Oracle.run calls in
    let texts = Array.of_list (List.map S.to_string calls) in
    let phases =
      Checker.Initial
      :: List.concat (List.init len (fun i -> [ Checker.During i; Checker.After i ]))
    in
    List.iter
      (fun phase ->
        let id = Vcache.phase_id vc (Vcache.phase_key o ~text:(Array.get texts) phase) in
        if Vcache.phase p phase <> id || Vcache.phase q phase <> id then
          Alcotest.failf "round %d: phase ids differ" r)
      phases;
    Alcotest.(check int)
      (Printf.sprintf "round %d: each prefix counted once" r)
      (r * len) (Vcache.sizes vc).Vcache.trie_nodes
  done

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
  Alcotest.(check int) "same crash points" j1.Campaign.crash_points j4.Campaign.crash_points;
  Alcotest.(check int) "same dedup hits" j1.Campaign.dedup_hits j4.Campaign.dedup_hits;
  (* Each table holds one entry per distinct key, whichever domain added
     it first. *)
  let sizes (r : Campaign.result) =
    match r.Campaign.vcache_sizes with
    | Some z -> Vcache.[ z.verdict_entries; z.trie_nodes; z.point_memo; z.probe_memo ]
    | None -> Alcotest.fail "a cached campaign reports its table sizes"
  in
  Alcotest.(check (list int)) "same cache table sizes" (sizes j1) (sizes j4)

let test_campaign_seq1_cache_counts () =
  (* At jobs=1 the hit counters are deterministic. The verdict cache is the
     only crash-state cache, so without it nothing is deduplicated either. *)
  List.iter
    (fun (fs, states, dedup, vhits) ->
      let driver () = Option.get (Catalog.buggy_driver fs) () in
      let run use_vcache =
        Campaign.run ~exec:(Chipmunk.Run.exec ~use_vcache ()) (driver ()) (Ace.seq1 Ace.Strong)
      in
      let on = run true and off = run false in
      let counts (r : Campaign.result) =
        (r.Campaign.crash_states, r.Campaign.dedup_hits, r.Campaign.vcache_hits)
      in
      Alcotest.(check (triple int int int))
        (fs ^ ": states, dedup hits, vcache hits")
        (states, dedup, vhits) (counts on);
      Alcotest.(check (triple int int int)) (fs ^ ": no vcache, no hits") (states, 0, 0)
        (counts off))
    [ ("nova", 2960, 308, 2082); ("pmfs", 5160, 298, 3680) ]

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

(* --- Per-image memos --- *)

let seven_buggy () =
  List.map
    (fun (name, _) -> (name, Option.get (Catalog.buggy_driver name) ()))
    Catalog.clean_drivers

let seq1_for (d : Vfs.Driver.t) =
  List.of_seq
    (Seq.map snd
       (Ace.seq1 (if d.Vfs.Driver.consistency = Vfs.Driver.Weak then Ace.Fsync else Ace.Strong)))

(* The harness's subset order: the empty subset, then every subset of
   each size 1..n in lexicographic order, at most [limit] in all. *)
let subsets ~n ~limit =
  let out = ref [] and count = ref 0 in
  let rec combo acc start remaining =
    if !count < limit then
      if remaining = 0 then begin
        incr count;
        out := List.rev acc :: !out
      end
      else
        for i = start to n - remaining do
          combo (i :: acc) (i + 1) (remaining - 1)
        done
  in
  for size = 0 to n do
    combo [] 0 size
  done;
  List.rev !out

(* Every digest the crash-point memo would serve matches the image built
   from that subset: run seq-1 through one cache per driver, then walk
   each workload's trace again, and at every point the memo knows, build
   each state and digest it. *)
let test_point_memo_digests () =
  List.iter
    (fun (name, driver) ->
      let vc = Vcache.create () in
      let workloads = seq1_for driver in
      List.iter (fun calls -> ignore (Harness.test_workload ~vcache:vc driver calls)) workloads;
      let served = ref 0 in
      List.iter
        (fun calls ->
          let r = Harness.record driver calls in
          let replay = Image.snapshot r.Harness.rec_base in
          Harness.walk ~replay r.Harness.rec_trace (fun p ->
              match Vcache.point vc (Harness.point_key ~replay p) (fun () -> raise Exit) with
              | exception Exit -> ()
              | digests, _ ->
                let units = Array.of_list p.Harness.in_flight in
                let states =
                  subsets ~n:(Array.length units) ~limit:Harness.max_states_per_point
                in
                Alcotest.(check int) (name ^ ": one digest per state") (List.length states)
                  (Array.length digests);
                List.iteri
                  (fun j idxs ->
                    Image.checkpoint replay;
                    List.iter
                      (fun i -> Chipmunk.Coalesce.apply (Image.write_string replay) units.(i))
                      idxs;
                    let d = Image.digest replay in
                    Image.rollback replay;
                    incr served;
                    if d <> digests.(j) then
                      Alcotest.failf "%s, %s: state %d digests to %d, the memo says %d" name
                        (Fuzz.Prog.to_string calls) j d digests.(j))
                  states))
        workloads;
      if !served = 0 then Alcotest.failf "%s: no memoized crash point met" name)
    (seven_buggy ())

(* Served digests are only lookup keys: a state whose lookup misses is
   rebuilt and must digest as served. Seed the memo with wrong digests for
   a workload's first crash point, then run the workload through the
   cache: the point's first state misses, and the run must raise. *)
let test_point_memo_wrong_digests_raise () =
  let driver = nova_buggy () in
  let calls = List.hd (seq1_for driver) in
  let vc = Vcache.create () in
  let r = Harness.record driver calls in
  let replay = Image.snapshot r.Harness.rec_base in
  (try
     Harness.walk ~replay r.Harness.rec_trace (fun p ->
         let n = List.length p.Harness.in_flight in
         let states = List.length (subsets ~n ~limit:Harness.max_states_per_point) in
         let wrong = Array.init states (fun j -> Image.digest replay + j + 1) in
         ignore (Vcache.point vc (Harness.point_key ~replay p) (fun () -> wrong));
         raise Exit)
   with Exit -> ());
  match Harness.test_workload ~vcache:vc driver calls with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "a state built under a wrong memoized digest went unnoticed"

(* A result's fingerprints are its reports' fingerprints, with the cache
   on (hits render none) and off. *)
let test_result_fingerprints () =
  List.iter
    (fun (name, driver) ->
      let vcache = Vcache.create () in
      List.iter
        (fun calls ->
          List.iter
            (fun vcache ->
              let r = Harness.test_workload ?vcache driver calls in
              Alcotest.(check (list string))
                (Printf.sprintf "%s, %s" name (Fuzz.Prog.to_string calls))
                (List.map R.fingerprint r.Harness.reports)
                r.Harness.fingerprints)
            [ Some vcache; None ])
        (seq1_for driver))
    (seven_buggy ())

(* A driver whose mounted handles count the usability probe: a mount's
   first mutating call starts it, and the crash image's digest at mount
   names it. *)
let probe_counting (d : Vfs.Driver.t) =
  let probes : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let mount pm =
    let digest = Image.digest (Persist.Pm.image pm) in
    let started = ref false in
    let start () =
      if not !started then begin
        started := true;
        Hashtbl.replace probes digest (1 + Option.value ~default:0 (Hashtbl.find_opt probes digest))
      end
    in
    Result.map
      (fun (h : Vfs.Handle.t) ->
        {
          h with
          Vfs.Handle.creat = (fun ~path -> start (); h.Vfs.Handle.creat ~path);
          unlink = (fun ~path -> start (); h.Vfs.Handle.unlink ~path);
          rmdir = (fun ~path -> start (); h.Vfs.Handle.rmdir ~path);
        })
      (d.Vfs.Driver.mount pm)
  in
  ({ d with Vfs.Driver.mount }, probes)

let test_probe_once_per_image () =
  let run use_vcache =
    let driver, probes = probe_counting (Option.get (Catalog.buggy_driver "pmfs") ()) in
    let r = Campaign.run ~exec:(Chipmunk.Run.exec ~use_vcache ()) driver (Ace.seq1 Ace.Strong) in
    (r, Hashtbl.fold (fun _ n acc -> n :: acc) probes [])
  in
  let on, counts = run true in
  List.iter (fun n -> Alcotest.(check int) "one probe per image digest" 1 n) counts;
  let off, off_counts = run false in
  let probed = List.fold_left ( + ) 0 off_counts in
  Alcotest.(check int) "the same images probed without the cache" (List.length off_counts)
    (List.length counts);
  Alcotest.(check bool)
    (Printf.sprintf "the memo saved probes (%d reused)" on.Campaign.probes_reused)
    true
    (on.Campaign.probes_reused > 0);
  Alcotest.(check int) "no probes reused without a cache" 0 off.Campaign.probes_reused;
  Alcotest.(check bool) "without the cache some image is probed twice" true
    (probed > List.length off_counts)

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
    Alcotest.test_case "vcache: verdict shared across domains" `Quick test_vcache_verdict_shared;
    Alcotest.test_case "vcache: equal verdicts stored once" `Quick
      test_vcache_equal_verdicts_shared;
    Alcotest.test_case "vcache: key separates phase/digest" `Quick test_vcache_key_separates;
    Alcotest.test_case "vcache: phase key pins every part" `Quick test_phase_key_parts;
    Alcotest.test_case "trie: oracle and phase keys equal Oracle.run" `Quick
      test_trie_matches_oracle_run;
    Alcotest.test_case "trie: concurrent programs share nodes and phase ids" `Quick
      test_trie_concurrent_program;
    Alcotest.test_case "campaign: findings identical with vcache on/off" `Quick
      test_campaign_vcache_transparent;
    Alcotest.test_case "campaign: vcache keeps jobs=1 == jobs=4" `Quick
      test_campaign_vcache_parallel_deterministic;
    Alcotest.test_case "campaign: seq1 cache counters at jobs=1" `Quick
      test_campaign_seq1_cache_counts;
    Alcotest.test_case "harness: repeated workload served from cache" `Quick
      test_harness_vcache_second_run_hits;
    Alcotest.test_case "harness: replay_recorded == test_workload" `Quick
      test_replay_recorded_equals_test_workload;
    Alcotest.test_case "memo: served digests equal built images" `Quick
      test_point_memo_digests;
    Alcotest.test_case "memo: wrong served digests raise on a miss" `Quick
      test_point_memo_wrong_digests_raise;
    Alcotest.test_case "harness: result fingerprints are the reports'" `Quick
      test_result_fingerprints;
    Alcotest.test_case "memo: one usability probe per image" `Quick test_probe_once_per_image;
  ]
