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
#                  journal, for all four index structures; then test_shard's
#                  "recovery" group, the same every-offset sweep over the
#                  sharded composite journal (top), so both users of
#                  Siri_wal.Journal are swept by one target.  The seed is
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
#                  property, under the same pinned seed.  It also cuts
#                  the segments a roll sealed without an fsync (a power
#                  loss before the next checkpoint) at every byte, and a
#                  durable engine's sealed segment at every record
#                  boundary, requiring replay to the committed state;
#                  and it pins the fsync counters: a roll adds none, the
#                  next sync flush one per sealed segment plus the active.
#                  Its "cold read" group pins the allocation-light read:
#                  a warm Pack.get allocates the node bytes plus a fixed
#                  constant (0- and 40-child records), systhreads and
#                  domains sharing the per-domain record buffer get
#                  byte-identical answers, and a flip of any head byte is
#                  `Tampered on the bytes-only path.
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
#                  present-or-absent, and no phantom commits appear.  Run
#                  twice, with SIRI_DOMAINS=1 (every session on the main
#                  domain) and =2 (sessions spread over serving domains).
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
#   make pos     — run the POS-Tree suite with the streaming-rebuilder
#                  differential scaled up: SIRI_POS_ROUNDS=300 qcheck cases of
#                  1–8 chained batches (random ops plus ops aimed at leaf
#                  boundaries) under the default, Prolly, tiny-max_size and
#                  min_size > 0 configs, each checked root-for-root against
#                  both bulk builds.
#   make lint    — fail on any `Unix.fork ()` call in lib/, bin/, test/ or
#                  bench/.  OCaml 5 refuses fork once a domain has been
#                  spawned, and the pool spawns domains at will, so crash
#                  harnesses re-spawn their own binary instead
#                  (test/crash_child.ml).  Also fail when an index library
#                  (lib/mpt, mbt, pos, mvbt, prolly) defines a read that
#                  Generic.make derives — lookup, path_length, get_many,
#                  range, proofs, to_list, cardinal: each kind keeps one
#                  point walk and one scan, so a second copy of a read path
#                  cannot creep back in.  Likewise for the write side:
#                  an index library must not define merge or insert_many
#                  (Generic.make derives merge from diff and batch), extend
#                  Node_cache.repr (Store.Decoded is the one cached read), or
#                  call note_staged / put_staged (Store.put_parallel is the
#                  one install step).  And lib/pos and lib/mvbt must not
#                  declare a decoded entry-array node type or use
#                  Wire.Writer: a split-key node is read as a Split_key
#                  view and written by Split_key's one exact-size writer.
#                  And lib/pack must not use Unix.lseek or a read_mutex:
#                  segment reads are lock-free positioned reads.  And
#                  bin/ and lib/server must not name "SHARDS",
#                  Durable.open_ or Sharded.open_: Siri_shard.Dir is the
#                  one place that reads a directory's layout.  And in
#                  lib/wal and lib/shard only journal.ml may use
#                  Frame.step: the journal scan lives in Siri_wal.Journal
#                  alone.  And nothing in lib/ outside lib/io may call
#                  Unix.fsync, open_out_gen, open_out_bin, Sys.rename,
#                  Unix.rename, Unix.truncate, Unix.ftruncate, Sys.remove,
#                  Unix.mkdir or Sys.rmdir: every durable file effect goes
#                  through Siri_io.Io, the one place the crash-ordering
#                  rules live and the effect trace is recorded
#                  (lib/server's socket-file Unix.unlink is not a durable
#                  effect and is not on the list).  And in lib/pack only
#                  segment.ml(i) may name Torn or End: Segment.scan is the
#                  one segment scan (rebuild, unindexed segments and tails
#                  alike), so a second scan loop cannot creep back into
#                  pack.ml.  And bin/siri_cli.ml may name
#                  Generic.of_entries once (its TSV index builder, build)
#                  and Pack.open_ once (with_pack), so per-command
#                  builders and pack opens cannot come back.
#   make bench-sidecars — fail loudly if any committed BENCH_*.json metrics
#                  sidecar is missing or empty (regenerate with
#                  `dune exec bench/main.exe -- <id>`).
#   make rss     — memory under load (not part of check): runs the perfbench
#                  ingest workload for 60 s (seed 13) and samples the
#                  largest siri_serve.exe RSS with ps once a second, then
#                  prints the samples and the least-squares MB/s slope over
#                  the load window (bench/rss.py).  The last samples, after
#                  the window, include the shutdown Pack.sync_index, which
#                  serializes the whole offset index: that spike is not the
#                  steady state.
#   make quick   — tier-1 without the slow cases: everything alcotest marks
#                  `Slow (the SIGKILL storms, the every-offset truncation
#                  sweeps and the qcheck property tests) is skipped via
#                  ALCOTEST_QUICK_TESTS.

DUNE ?= dune
QCHECK_SEED ?= 20260806

SIDECARS = BENCH_proof.json BENCH_pack.json BENCH_parallel.json \
           BENCH_readpath.json BENCH_server.json BENCH_shard.json \
           BENCH_scan.json

.PHONY: all build test quick smoke crash par read pack proof serve shard scan pos lint bench-sidecars check bench rss clean

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
	QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_shard.exe -- test recovery

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
	SIRI_DOMAINS=1 SIRI_SERVE_ROUNDS=25 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_server.exe
	SIRI_DOMAINS=2 SIRI_SERVE_ROUNDS=25 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_server.exe

shard: build
	SIRI_SHARD_ROUNDS=15 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_shard.exe

scan: build
	SIRI_SCAN_ROUNDS=25 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_scan.exe

pos: build
	SIRI_POS_ROUNDS=300 QCHECK_SEED=$(QCHECK_SEED) $(DUNE) exec test/test_pos.exe

DERIVED_READS = lookup_count|lookup|path_length|get_many|in_range|range|prove|verify_proof|prove_many|verify_many|to_list|cardinal
INDEX_LIBS = lib/mpt lib/mbt lib/pos lib/mvbt lib/prolly
SPLIT_KEY_LIBS = lib/pos lib/mvbt
DURABLE_EFFECTS = \bUnix\.fsync\b|\bopen_out_gen\b|\bopen_out_bin\b|\bSys\.rename\b|\bUnix\.rename\b|\bUnix\.truncate\b|\bUnix\.ftruncate\b|\bSys\.remove\b|\bUnix\.mkdir\b|\bSys\.rmdir\b

lint:
	@if grep -rnE --include='*.ml' --include='*.mli' 'Unix\.fork *\(\)' lib bin test bench; then \
	  echo "lint: Unix.fork () is not allowed (re-spawn the binary instead, see test/crash_child.ml)"; \
	  exit 1; \
	fi; \
	if grep -rnE --include='*.ml' --include='*.mli' \
	    '^[[:space:]]*(let|let rec|and|val)[[:space:]]+($(DERIVED_READS))\b' $(INDEX_LIBS); then \
	  echo "lint: index libraries must not define derived reads (Generic.make builds them from the kind's walk and scan)"; \
	  exit 1; \
	fi; \
	if grep -rnE --include='*.ml' --include='*.mli' \
	    '^[[:space:]]*(let|let rec|and|val)[[:space:]]+(merge|insert_many)\b' $(INDEX_LIBS); then \
	  echo "lint: index libraries must not define merge or insert_many (Generic.make derives merge from diff and batch)"; \
	  exit 1; \
	fi; \
	if grep -rnE --include='*.ml' --include='*.mli' 'repr[[:space:]]*\+=' $(INDEX_LIBS); then \
	  echo "lint: index libraries must not extend Node_cache.repr (read through Store.Decoded)"; \
	  exit 1; \
	fi; \
	if grep -rnE --include='*.ml' --include='*.mli' '\b(note_staged|put_staged)\b' $(INDEX_LIBS); then \
	  echo "lint: index libraries must not install staged nodes directly (use Store.put_parallel)"; \
	  exit 1; \
	fi; \
	if grep -rnE --include='*.ml' --include='*.mli' \
	    '\bof[[:space:]]*\(?[[:space:]]*(Kv\.)?key[[:space:]]*\*[[:space:]]*((Kv\.)?value|Hash\.t)[[:space:]]*\)?[[:space:]]*array|Wire\.Writer' \
	    $(SPLIT_KEY_LIBS); then \
	  echo "lint: split-key trees read nodes as Split_key views and write them with Split_key's writer (no decoded entry-array node type, no Wire.Writer)"; \
	  exit 1; \
	fi; \
	if grep -rnE --include='*.ml' --include='*.mli' 'Unix\.lseek|read_mutex' lib/pack; then \
	  echo "lint: pack reads are lock-free positioned reads (Pack.pread): no Unix.lseek, no read_mutex in lib/pack"; \
	  exit 1; \
	fi; \
	if grep -rnE --include='*.ml' --include='*.mli' '"SHARDS"|Durable\.open_|Sharded\.open_' bin lib/server; then \
	  echo "lint: bin/ and lib/server open directories through Siri_shard.Dir, which reads the layout from disk (no \"SHARDS\", Durable.open_ or Sharded.open_)"; \
	  exit 1; \
	fi; \
	if grep -rnE --include='*.ml' --include='*.mli' 'Frame\.step' lib/wal lib/shard \
	    | grep -v '^lib/wal/journal\.ml:'; then \
	  echo "lint: lib/wal and lib/shard scan journal files through Siri_wal.Journal (no Frame.step outside journal.ml)"; \
	  exit 1; \
	fi; \
	if grep -rnE --include='*.ml' --include='*.mli' \
	    '$(DURABLE_EFFECTS)' lib | grep -v '^lib/io/'; then \
	  echo "lint: durable file effects in lib/ go through Siri_io.Io (no Unix.fsync, open_out_gen, open_out_bin, Sys.rename, Unix.rename, Unix.truncate, Unix.ftruncate, Sys.remove, Unix.mkdir or Sys.rmdir outside lib/io)"; \
	  exit 1; \
	fi; \
	if grep -rnwE --include='*.ml' --include='*.mli' 'Torn|End' lib/pack \
	    | grep -vE '^lib/pack/segment\.mli?:'; then \
	  echo "lint: lib/pack steps segment records in Segment.scan alone (no Torn or End outside segment.ml)"; \
	  exit 1; \
	fi; \
	if [ $$(grep -o 'Generic\.of_entries' bin/siri_cli.ml | wc -l) -gt 1 ] \
	    || [ $$(grep -o 'Pack\.open_' bin/siri_cli.ml | wc -l) -gt 1 ]; then \
	  grep -nE 'Generic\.of_entries|Pack\.open_' bin/siri_cli.ml; \
	  echo "lint: bin/siri_cli.ml builds TSV indexes in build alone and opens packs in with_pack alone (one Generic.of_entries, one Pack.open_)"; \
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

check: build lint test smoke crash par read pack proof serve shard scan pos bench-sidecars
	@echo "check: OK"

bench:
	$(DUNE) exec bench/main.exe

rss:
	python3 bench/rss.py

clean:
	$(DUNE) clean
