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
# Then the report-file flow: save a fuzz campaign's findings, minimize the
# first saved report under the fuzzer's cap, and reproduce the result.
shrink-smoke:
	dune exec bin/chipmunk_cli.exe -- minimize --bug 4 --expect-shrink \
	  --out _build/bug-4.repro.json
	dune exec bin/chipmunk_cli.exe -- reproduce --bug 4 _build/bug-4.repro.json
	dune exec bin/chipmunk_cli.exe -- fuzz --fs nova --buggy --execs 96 \
	  --seed 7 --save _build/fuzz-save
	dune exec bin/chipmunk_cli.exe -- minimize \
	  _build/fuzz-save/finding-00.report.json --buggy --cap 2
	dune exec bin/chipmunk_cli.exe -- reproduce --buggy \
	  _build/fuzz-save/finding-00.report.json.min.json

# Fuzzer smoke test: two short campaigns on buggy NOVA with the same seed
# must find something and report the identical finding lines (a fuzz run
# is a pure function of its seed).
fuzz-smoke:
	dune exec bin/chipmunk_cli.exe -- fuzz --fs nova --buggy --execs 96 \
	  --seed 7 | grep '^finding' > _build/fuzz-smoke-1.txt
	dune exec bin/chipmunk_cli.exe -- fuzz --fs nova --buggy --execs 96 \
	  --seed 7 | grep '^finding' > _build/fuzz-smoke-2.txt
	test -s _build/fuzz-smoke-1.txt
	diff -u _build/fuzz-smoke-1.txt _build/fuzz-smoke-2.txt

# Cache-transparency smoke test: the dedup cache and the verdict cache
# must not change what a campaign finds, only how fast it finds it. Run
# the buggy-NOVA ACE suite with caches at their defaults, with dedup off
# and with the verdict cache off, then once more at --jobs 2 (one verdict
# cache shared by both worker domains under its lock); the per-finding
# fingerprint lines must match exactly (only the hit-rate footer may differ).
cache-smoke:
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  | grep '^fingerprint' > _build/cache-smoke-default.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  --no-dedup | grep '^fingerprint' > _build/cache-smoke-nodedup.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  --no-vcache | grep '^fingerprint' > _build/cache-smoke-novcache.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  --jobs 2 | grep '^fingerprint' > _build/cache-smoke-jobs2.txt
	test -s _build/cache-smoke-default.txt
	diff -u _build/cache-smoke-nodedup.txt _build/cache-smoke-default.txt
	diff -u _build/cache-smoke-novcache.txt _build/cache-smoke-default.txt
	diff -u _build/cache-smoke-novcache.txt _build/cache-smoke-jobs2.txt

# Rewrite BENCH_parallel.json (sequential vs parallel wall-clock, dedup
# hit-rate, states/sec) so the perf trajectory is tracked across PRs.
# Override the worker-domain count with CHIPMUNK_JOBS=N.
bench-perf:
	dune exec bench/main.exe parallel

# Rewrite BENCH_shrink.json (delta-debugging shrink factors over the
# 25-bug corpus).
bench-shrink:
	dune exec bench/main.exe shrink

clean:
	dune clean
