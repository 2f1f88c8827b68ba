# Convenience targets; the source of truth is dune.

.PHONY: ci build test bench-perf bench-shrink bench-smoke shrink-smoke fuzz-smoke \
  cache-smoke seq3-smoke counters-smoke clean

ci: build test bench-smoke shrink-smoke fuzz-smoke cache-smoke seq3-smoke counters-smoke

build:
	dune build @all

test:
	dune runtest

# Bench smoke test: rerun the parallel and shrink benches in a scratch
# directory and diff the JSON they write against the committed
# BENCH_parallel.json and BENCH_shrink.json. Every field but "jobs" (the
# machine's core count) is deterministic, so only that one is stripped.
BENCH = $(CURDIR)/_build/default/bench/main.exe

bench-smoke: build
	rm -rf _build/bench-smoke
	mkdir -p _build/bench-smoke
	cd _build/bench-smoke && $(BENCH) parallel > parallel.out && $(BENCH) shrink > shrink.out
	for f in BENCH_parallel.json BENCH_shrink.json; do \
	  sed 's/"jobs":[0-9]*,//' $$f > _build/bench-smoke/$$f.want && \
	  sed 's/"jobs":[0-9]*,//' _build/bench-smoke/$$f \
	    | diff -u _build/bench-smoke/$$f.want - || exit 1; \
	done

# Minimizer smoke test: shrink one known catalogued bug to a reproducer
# (must strictly reduce the workload and keep the fingerprint — the CLI
# exits non-zero otherwise), then rebuild and re-verify the artifact.
# Then the report-file flow: save a fuzz campaign's findings, minimize
# every saved report under the fuzzer's cap, and reproduce each result.
# Last, the two CLI paths that minimize a run's findings after it: an ACE
# campaign with --minimize must print the same fingerprints as without,
# and replay --minimize must succeed on a saved fuzz workload.
CLI = _build/default/bin/chipmunk_cli.exe

shrink-smoke: build
	$(CLI) minimize --bug 4 --expect-shrink --out _build/bug-4.repro.json
	$(CLI) reproduce --bug 4 _build/bug-4.repro.json
	rm -rf _build/fuzz-save
	$(CLI) fuzz --fs nova --buggy --execs 256 --seed 1 --save _build/fuzz-save
	for f in _build/fuzz-save/finding-*.report.json; do \
	  $(CLI) minimize $$f --buggy --cap 2 && \
	  $(CLI) reproduce --buggy $$f.min.json || exit 1; \
	done
	$(CLI) ace --fs nova --buggy --suite seq1 \
	  | grep '^fingerprint' > _build/shrink-smoke-ace.txt
	$(CLI) ace --fs nova --buggy --suite seq1 --minimize \
	  | grep '^fingerprint' > _build/shrink-smoke-ace-min.txt
	test -s _build/shrink-smoke-ace.txt
	diff -u _build/shrink-smoke-ace.txt _build/shrink-smoke-ace-min.txt
	$(CLI) replay --fs nova --buggy --minimize _build/fuzz-save/finding-00.workload

# Fuzzer smoke test: two short campaigns on buggy NOVA with the same seed
# must find something and report the identical finding and triage cluster
# lines (a fuzz run is a pure function of its seed, and so is its
# clustering).
fuzz-smoke:
	dune exec bin/chipmunk_cli.exe -- fuzz --fs nova --buggy --execs 96 \
	  --seed 7 | grep -E '^(finding|  cluster)' > _build/fuzz-smoke-1.txt
	dune exec bin/chipmunk_cli.exe -- fuzz --fs nova --buggy --execs 96 \
	  --seed 7 | grep -E '^(finding|  cluster)' > _build/fuzz-smoke-2.txt
	test -s _build/fuzz-smoke-1.txt
	diff -u _build/fuzz-smoke-1.txt _build/fuzz-smoke-2.txt

# Cache-transparency smoke test: the verdict cache (which also skips
# states repeating at one crash point) must not change what a campaign
# finds, only how fast it finds it. Run the buggy-NOVA ACE suite with the
# cache on and off, then once more at --jobs 2 (one verdict cache shared
# by both worker domains under its lock); the per-finding fingerprint
# lines must match exactly, and so must the footer's dedup count (each
# crash point counts its own repeats, whatever the other domain stored)
# and the "cache tables:" line (each table holds one entry per distinct
# key, whichever domain added it); the rest of the hit-rate footer may
# differ.
# Buggy PMFS runs with the cache on and off, and at --jobs 2: its journal
# replay and the usability probe write the most per crash state, so a
# wrong checkpoint rollback shows there first, and at --jobs 2 both
# domains share the cache's per-image memos (crash-point digests and
# probe results); its dedup count and table sizes must match too. A
# short buggy-NOVA fuzz run with the cache on and off must print the same finding and
# triage cluster lines: the cache also serves the fuzzer's oracle boundaries from its call-prefix
# trie and each verdict's rendered fingerprint. No run may print a
# "truncated:" footer: under default opts every crash state is checked.
cache-smoke:
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  | tee _build/cache-smoke-default.out \
	  | grep '^fingerprint' > _build/cache-smoke-default.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  --no-vcache | tee _build/cache-smoke-novcache.out \
	  | grep '^fingerprint' > _build/cache-smoke-novcache.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  --jobs 2 | tee _build/cache-smoke-jobs2.out \
	  | grep '^fingerprint' > _build/cache-smoke-jobs2.txt
	test -s _build/cache-smoke-default.txt
	diff -u _build/cache-smoke-novcache.txt _build/cache-smoke-default.txt
	diff -u _build/cache-smoke-novcache.txt _build/cache-smoke-jobs2.txt
	grep -o '^cache: dedup [0-9]* hits' _build/cache-smoke-default.out \
	  > _build/cache-smoke-dedup.txt
	grep -o '^cache: dedup [0-9]* hits' _build/cache-smoke-jobs2.out \
	  | diff -u _build/cache-smoke-dedup.txt -
	grep '^cache tables:' _build/cache-smoke-default.out > _build/cache-smoke-tables.txt
	test -s _build/cache-smoke-tables.txt
	grep '^cache tables:' _build/cache-smoke-jobs2.out \
	  | diff -u _build/cache-smoke-tables.txt -
	dune exec bin/chipmunk_cli.exe -- ace --fs pmfs --buggy --suite seq1 \
	  | tee _build/cache-smoke-pmfs-default.out \
	  | grep '^fingerprint' > _build/cache-smoke-pmfs-default.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs pmfs --buggy --suite seq1 \
	  --no-vcache | tee _build/cache-smoke-pmfs-nocache.out \
	  | grep '^fingerprint' > _build/cache-smoke-pmfs-nocache.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs pmfs --buggy --suite seq1 \
	  --jobs 2 | tee _build/cache-smoke-pmfs-jobs2.out \
	  | grep '^fingerprint' > _build/cache-smoke-pmfs-jobs2.txt
	test -s _build/cache-smoke-pmfs-default.txt
	diff -u _build/cache-smoke-pmfs-nocache.txt _build/cache-smoke-pmfs-default.txt
	diff -u _build/cache-smoke-pmfs-nocache.txt _build/cache-smoke-pmfs-jobs2.txt
	grep -o '^cache: dedup [0-9]* hits' _build/cache-smoke-pmfs-default.out \
	  > _build/cache-smoke-pmfs-dedup.txt
	grep -o '^cache: dedup [0-9]* hits' _build/cache-smoke-pmfs-jobs2.out \
	  | diff -u _build/cache-smoke-pmfs-dedup.txt -
	grep '^cache tables:' _build/cache-smoke-pmfs-default.out \
	  > _build/cache-smoke-pmfs-tables.txt
	test -s _build/cache-smoke-pmfs-tables.txt
	grep '^cache tables:' _build/cache-smoke-pmfs-jobs2.out \
	  | diff -u _build/cache-smoke-pmfs-tables.txt -
	dune exec bin/chipmunk_cli.exe -- fuzz --fs nova --buggy --execs 256 --seed 1 \
	  | tee _build/cache-smoke-fuzz-default.out \
	  | grep -E '^(finding|  cluster)' > _build/cache-smoke-fuzz-default.txt
	dune exec bin/chipmunk_cli.exe -- fuzz --fs nova --buggy --execs 256 --seed 1 \
	  --no-vcache | tee _build/cache-smoke-fuzz-novcache.out \
	  | grep -E '^(finding|  cluster)' > _build/cache-smoke-fuzz-novcache.txt
	test -s _build/cache-smoke-fuzz-default.txt
	diff -u _build/cache-smoke-fuzz-novcache.txt _build/cache-smoke-fuzz-default.txt
	! grep -H '^truncated:' _build/cache-smoke-*.out

# ACE seq-3 smoke test: the full 54,872-workload suite on buggy NOVA must
# complete (exit 0) and find exactly the unique findings EXPERIMENTS.md E21
# records. It is the suite whose crash images exposed equal-offset swap
# collisions in the content digests, which the crash-point memo check
# turned into an abort, and the one whose memory the streaming merge bounds.
SEQ3_NOVA_FINDINGS = 34

seq3-smoke: build
	$(CLI) ace --fs nova --buggy --suite seq3 > _build/seq3-smoke.out
	grep -qx '$(SEQ3_NOVA_FINDINGS) unique finding(s):' _build/seq3-smoke.out

# Reference-counter smoke test: one traced perfbench run per declared
# workload must reproduce its reference ledger (crash states, dedup and
# verdict-cache hits, mounts, trace stores and fences; crash points on
# ace-pmfs only, since perfbench does not read the fuzzer's count). The
# last line a run prints must say "correct":true and "failed":0.
counters-smoke: build
	for w in fuzz-nova-j1 ace-pmfs; do \
	  sh perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 1 \
	    | tail -n 1 > _build/counters-smoke-$$w.json; \
	  grep -q '"correct":true,' _build/counters-smoke-$$w.json && \
	  grep -q '"failed":0,' _build/counters-smoke-$$w.json || exit 1; \
	done

# Rewrite BENCH_parallel.json (findings and deterministic cache counts of
# one campaign under each cache config, and whether a run over one worker
# domain per core finds the same). Wall-clock figures come from perfbench/.
bench-perf:
	dune exec bench/main.exe parallel

# Rewrite BENCH_shrink.json (delta-debugging shrink factors over the
# 25-bug corpus).
bench-shrink:
	dune exec bench/main.exe shrink

clean:
	dune clean
