# Tier-1 gate: everything a change must pass before it lands.
#
#   make check   — build, lint, run the full test battery (under the pinned
#                  QCHECK_SEED from test/dune, so failures reproduce
#                  identically everywhere), then smoke-run the telemetry
#                  pipeline end to end: `siri-cli stats` must print
#                  per-structure counters and latency quantiles for all
#                  four indexes on a sample workload.
#   make test    — the full test battery twice, with the pool width forced
#                  to 1 and to 4 via SIRI_DOMAINS, so a pass does not depend
#                  on how many cores the host has (the crash harnesses, for
#                  one, must work beside live pool domains).  `--force`
#                  reruns every suite: dune does not track SIRI_DOMAINS.
#   make crash   — run the WAL crash simulator on its own: every-byte-offset
#                  truncation plus seeded bit-flip storms against the commit
#                  journal, for all four index structures.  The seed is
#                  pinned so a failure reproduces identically everywhere.
#   make par     — run the parallel-commit determinism suite twice, with the
#                  pool width forced to 1 and to 4 via SIRI_DOMAINS: the
#                  root-hash and accounting equalities must hold at both.
#   make read    — run the read-path suite twice, with the decoded-node
#                  cache forced off and to its 64 MiB default via
#                  SIRI_NODE_CACHE: cached and uncached answers must agree.
#   make pack    — run the pack-backend crash simulator on its own:
#                  every-byte-offset truncation of segments, offset index
#                  and journal, seeded bit-flip storms, compaction
#                  kill-points, and the rebuilt-index ≡ persisted-index
#                  property, under the same pinned seed.
#   make proof   — run the multiproof suites on their own: the differential
#                  single-proof oracle, the adversarial flip storm, the
#                  wire-codec every-offset harness, and the proof-cache
#                  invalidation checks, twice — with the proof cache off
#                  (default) and forced on via SIRI_PROOF_CACHE — under the
#                  same pinned seed.
#   make serve   — run the server suite with the crash-kill harness scaled
#                  up: SIRI_SERVE_ROUNDS=25 SIGKILLs the real siri_serve
#                  binary at 25 seeded points per backend (50 total) under
#                  concurrent client traffic, asserting every acked commit
#                  survives recovery, every unacked one is atomically
#                  present-or-absent, and no phantom commits appear.
#   make shard   — run the sharded-keyspace suite with the crash harness
#                  scaled up: SIRI_SHARD_ROUNDS=15 SIGKILLs a committing
#                  child at 15 seeded points mid-multi-shard-fan-out and
#                  asserts all-or-clamped recovery — every shard rolls back
#                  to the same published composite prefix, never a mix of
#                  shard generations — plus the top-journal truncation sweep
#                  and the tampered-proof zero-acceptance storm.
#   make scan    — run the ordered-read + reshard suite with the crash
#                  harness scaled up: SIRI_SCAN_ROUNDS=25 SIGKILLs a child
#                  flipping the layout 4 <-> 8 at 25 seeded points per
#                  backend (50 total) and asserts recovery lands on the old
#                  or the new generation — never a mix — with every durably
#                  acked swap preserved and the dataset intact, plus the
#                  scan-vs-sorted-assoc differential across every ordered
#                  index kind and the single-shard routing fanout pin.
#   make lint    — fail on any `Unix.fork ()` call in lib/, bin/, test/ or
#                  bench/.  OCaml 5 refuses fork once a domain has been
#                  spawned, and the pool spawns domains at will, so crash
#                  harnesses re-spawn their own binary instead
#                  (test/crash_child.ml).
#   make bench-sidecars — fail loudly if any committed BENCH_*.json metrics
#                  sidecar is missing or empty (regenerate with
#                  `dune exec bench/main.exe -- <id>`).
#   make quick   — tier-1 without the slow cases: everything alcotest marks
#                  `Slow (the SIGKILL storms, the every-offset truncation
#                  sweeps and the qcheck property tests) is skipped via
#                  ALCOTEST_QUICK_TESTS.

DUNE ?= dune
QCHECK_SEED ?= 20260806

SIDECARS = BENCH_proof.json BENCH_pack.json BENCH_parallel.json \
           BENCH_readpath.json BENCH_server.json BENCH_shard.json \
           BENCH_scan.json

.PHONY: all build test quick smoke crash par read pack proof serve shard scan lint bench-sidecars check bench clean

all: build

build:
	$(DUNE) build

test:
	SIRI_DOMAINS=1 $(DUNE) runtest --force
	SIRI_DOMAINS=4 $(DUNE) runtest --force

quick:
	ALCOTEST_QUICK_TESTS=1 $(DUNE) runtest --force

smoke: build
	$(DUNE) exec bin/siri_cli.exe -- stats --records 1000 --ops 500

crash: build
	QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_wal.exe

par: build
	SIRI_DOMAINS=1 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_parallel.exe
	SIRI_DOMAINS=4 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_parallel.exe

read: build
	SIRI_NODE_CACHE=0 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_readpath.exe
	SIRI_NODE_CACHE=67108864 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_readpath.exe

pack: build
	QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_pack.exe

proof: build
	QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_proof.exe
	SIRI_PROOF_CACHE=1048576 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_proof.exe

serve: build
	SIRI_SERVE_ROUNDS=25 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_server.exe

shard: build
	SIRI_SHARD_ROUNDS=15 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_shard.exe

scan: build
	SIRI_SCAN_ROUNDS=25 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_scan.exe

lint:
	@if grep -rnE --include='*.ml' --include='*.mli' 'Unix\.fork *\(\)' lib bin test bench; then \
	  echo "lint: Unix.fork () is not allowed (re-spawn the binary instead, see test/crash_child.ml)"; \
	  exit 1; \
	fi; \
	echo "lint: OK"

bench-sidecars:
	@missing=0; for f in $(SIDECARS); do \
	  if [ ! -s $$f ]; then \
	    echo "MISSING bench sidecar: $$f (regenerate: dune exec bench/main.exe -- $${f#BENCH_})" | sed 's/\.json)/)/'; \
	    missing=1; \
	  fi; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi; \
	echo "bench-sidecars: OK"

check: build lint test smoke crash par read pack proof serve shard scan bench-sidecars
	@echo "check: OK"

bench:
	$(DUNE) exec bench/main.exe

clean:
	$(DUNE) clean
