# Convenience targets; the source of truth is dune.

.PHONY: ci build test bench-perf bench-shrink shrink-smoke fuzz-smoke \
  cache-smoke clean

ci: build test shrink-smoke fuzz-smoke cache-smoke

build:
	dune build @all

test:
	dune runtest

# Minimizer smoke test: shrink one known catalogued bug to a reproducer
# (must strictly reduce the workload and keep the fingerprint — the CLI
# exits non-zero otherwise), then rebuild and re-verify the artifact.
# Then the report-file flow: save a fuzz campaign's findings, minimize
# every saved report under the fuzzer's cap, and reproduce each result.
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

# Cache-transparency smoke test: the dedup cache and the verdict cache
# must not change what a campaign finds, only how fast it finds it. Run
# the buggy-NOVA ACE suite with caches at their defaults, with dedup off
# and with the verdict cache off, then once more at --jobs 2 (one verdict
# cache shared by both worker domains under its lock); the per-finding
# fingerprint lines must match exactly (only the hit-rate footer may differ).
# Buggy PMFS runs with caches at their defaults and with both off: its
# journal replay and the usability probe write the most per crash state,
# so a wrong checkpoint rollback shows there first. No run may print a
# "truncated:" footer: under default opts every crash state is checked.
cache-smoke:
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  | tee _build/cache-smoke-default.out \
	  | grep '^fingerprint' > _build/cache-smoke-default.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  --no-dedup | tee _build/cache-smoke-nodedup.out \
	  | grep '^fingerprint' > _build/cache-smoke-nodedup.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  --no-vcache | tee _build/cache-smoke-novcache.out \
	  | grep '^fingerprint' > _build/cache-smoke-novcache.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  --jobs 2 | tee _build/cache-smoke-jobs2.out \
	  | grep '^fingerprint' > _build/cache-smoke-jobs2.txt
	test -s _build/cache-smoke-default.txt
	diff -u _build/cache-smoke-nodedup.txt _build/cache-smoke-default.txt
	diff -u _build/cache-smoke-novcache.txt _build/cache-smoke-default.txt
	diff -u _build/cache-smoke-novcache.txt _build/cache-smoke-jobs2.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs pmfs --buggy --suite seq1 \
	  | tee _build/cache-smoke-pmfs-default.out \
	  | grep '^fingerprint' > _build/cache-smoke-pmfs-default.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs pmfs --buggy --suite seq1 \
	  --no-dedup --no-vcache | tee _build/cache-smoke-pmfs-nocache.out \
	  | grep '^fingerprint' > _build/cache-smoke-pmfs-nocache.txt
	test -s _build/cache-smoke-pmfs-default.txt
	diff -u _build/cache-smoke-pmfs-nocache.txt _build/cache-smoke-pmfs-default.txt
	! grep -H '^truncated:' _build/cache-smoke-*.out

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
