#!/usr/bin/env bash
# The full CI gate: build, vet, the project's own static-analysis suite
# (determinism + the tag-discipline protocol rule; see DESIGN.md §6–§7), and the
# tests under the race detector. Tier-1 (`go build ./... && go test ./...`)
# is a subset; run this before merging anything that touches routing or
# transport code.
set -euo pipefail
cd "$(dirname "$0")/.."

fail() {
  echo "== FAIL: $1"
  echo "check.sh: FAILED"
  exit 1
}

step() {
  local name="$1"
  shift
  echo "== RUN : $name"
  if "$@"; then
    echo "== PASS: $name"
  else
    fail "$name"
  fi
}

step "go build ./..." go build ./...
step "go vet ./..." go vet ./...

# Line budget: non-test Go lines outside benchmark/ and the module's
# _test.go lines (the last two lines of scripts/loc.sh) must not exceed the
# two figures committed in scripts/loc.budget (first and second line), so a
# PR that grows the module says so in its diff — by raising a budget —
# instead of in a missed criterion. A PR that shrinks either lowers that
# budget to its own figure.
line_budget() {
  local table lines tests budget test_budget
  table="$(scripts/loc.sh)" || return 1
  lines="$(awk '/ total outside benchmark\/$/ {print $1}' <<<"$table")"
  tests="$(awk '/ _test\.go total$/ {print $1}' <<<"$table")"
  budget="$(sed -n 1p scripts/loc.budget)" || return 1
  test_budget="$(sed -n 2p scripts/loc.budget)" || return 1
  echo "non-test lines outside benchmark/: $lines (budget $budget); _test.go lines: $tests (budget $test_budget)"
  if [ "$lines" -gt "$budget" ] || [ "$tests" -gt "$test_budget" ]; then
    echo "$table"
    echo "line budget exceeded: delete as much as was added, or raise scripts/loc.budget in this diff and say why"
    return 1
  fi
}
step "line budget (scripts/loc.sh vs scripts/loc.budget)" line_budget

# One wire format: parroute-mpwire/1 is the only encoding on the mesh
# (DESIGN.md §11), so encoding/gob must not come back as a dependency.
no_gob() {
  local deps
  deps="$(go list -deps ./...)" || return 1
  ! grep -qx encoding/gob <<<"$deps"
}
step "no encoding/gob dependency" no_gob

# Lint gate: the whole suite over the whole module, once. internal/lint's
# TestModuleIsClean is the same run for tier-1.
step "parroutecheck ./..." go run ./cmd/parroutecheck ./...

# The service soak is excluded here and run as its own step below, so it
# executes exactly once per gate with an explicit, tunable volume. This
# step is also the cancellation tier (DESIGN.md §10, §15): the RunContext,
# RunBackground, Cancel, SerialDeadline and ParallelTimeout tests of mp,
# parallel, route and workpool — cancelling mid-stage unwinds every
# algorithm on every engine with an error wrapping context.Canceled and no
# leaked goroutine — run here, under this -race, once. internal/lint's
# TestModuleIsClean (the suite the parroutecheck step just ran) is skipped
# too: it is static analysis over a type-checked load of the module, which
# a -race build makes no more telling. This step is also
# where internal/service's TestSharedCircuitConcurrentJobs runs under
# -race: concurrent jobs of every algorithm sharing one cached circuit
# must only read it (DESIGN.md §13).
step "go test -race ./..." go test -race -skip 'TestServiceSoak|TestModuleIsClean' ./...

# The paper's tables: the -race step above routes TestPaperTables on
# primary2 and biomed only; here, without -race, it routes all six
# circuits and compares every deterministic block of EXPERIMENTS.md.
step "paper tables (six circuits, drift gate)" go test -count=1 -run '^TestPaperTables$' .

# Workers determinism on one P: the ordered band sweeps (coarse flips, wire
# placement, switch flips; DESIGN.md §9) hand work across goroutines at the
# seams, and a hand-off that only completes when the peer owns a core hangs
# on one P and nowhere else. The conformance matrix's workers-8 rows without
# a fault plan (its serial rows come along at every worker count), the
# eight-band seams test on gen.Small and the executor's property test
# already ran at the box's P count in the step above; here they run again
# with one.
one_p() {
  GOMAXPROCS=1 go test -race -count=1 \
    -run '^(TestConformance|TestWorkersByteIdenticalAtSeams)$/library/.*/.*/.*/.*/w8/chaos=none' . &&
    GOMAXPROCS=1 go test -race -count=1 -run 'TestSweep' ./internal/workpool
}
step "workers determinism on one P" one_p

# Peer batches are only read: on the in-process engine a received batch is
# the sender's memory, and a rank assembles its wires in its own array
# around its peers' (hybrid's redistribute, rank 0's merge). Hybrid and
# row-wise at P=3, where the middle rank has a peer on each side, run
# twenty times under the race detector.
peer_batches() {
  go test -race -count=20 -run '^TestPeerBatchesOnlyRead$' ./internal/parallel
}
step "peer batches only read (P=3 inproc, -race x20)" peer_batches

# Codec fuzz smoke: the hand-written payload codecs (internal/parallel's
# codec.go) must decode whatever they encode and re-encode it
# byte-identically (the canonical-encoding invariant the WireSize prices
# depend on), under the race detector.
# FuzzAnyCodec and FuzzFrame are seeded with each builtin and a registered
# payload, whole and with a count its body cannot hold. FuzzFrame drives
# the socket framing the multi-process TCP engine puts those codecs on: arbitrary byte streams must decode-or-reject, never
# panic, and accepted frames must re-encode canonically. FuzzStreamedFrame
# reads the same streams the way a link does, a chunk at a time through
# arbitrary read splits: it must decode what the whole-frame reference
# decodes or fail with ErrWire, and stream back the bytes it read.
# FuzzHello feeds arbitrary hello bodies to the handshake: admitHello
# installs a connection exactly when the hello decodes, carries this
# build's checksum and names an expected, free rank. FuzzGridDelta is
# the same bargain one layer up, for the (index, change) pairs a net-wise
# sync takes off the mesh: applied or refused whole, never a panic.
# FuzzWireBatches feeds arbitrary received wire batches through the
# assembly a rank's redistribute and rank 0's merge run: an accepted result
# equals the copying concatenation, a refused one names the tag, rank,
# element and field, and no peer's batch is written.
# FuzzOccupancyPeaks holds step 5's peak caches exact through any mix of
# wire adds and removals, sync deltas and boundary channel counts.
# FuzzAppendJSON and FuzzEnvelope guard the daemon's wire: twgrd frames
# AppendJSON's bytes into a job.result envelope by hand, unvalidated, so
# those bytes must equal the reflective encoder's, the frame must equal
# the envelope encoding/json would write, and Decode must refuse or read
# any input without a panic. FuzzReadJSON guards the circuit file: pins
# hold int32 fields, so whatever ReadJSON accepts must validate, fit them
# with the room a route inserts, and round-trip. FuzzChannelDensities
# holds the density sweep to its global-sort reference on wire spans up to
# the largest int32 x, where the close event Hi+1 only fits once widened.
fuzz_smoke() {
  go test -race -run '^$' -fuzz '^FuzzCodec$' -fuzztime 3s ./internal/parallel &&
    go test -race -run '^$' -fuzz '^FuzzWireBatches$' -fuzztime 3s ./internal/parallel &&
    go test -race -run '^$' -fuzz '^FuzzAnyCodec$' -fuzztime 3s ./internal/mp &&
    go test -race -run '^$' -fuzz '^FuzzFrame$' -fuzztime 3s ./internal/mp &&
    go test -race -run '^$' -fuzz '^FuzzStreamedFrame$' -fuzztime 3s ./internal/mp &&
    go test -race -run '^$' -fuzz '^FuzzHello$' -fuzztime 3s ./internal/mp &&
    go test -race -run '^$' -fuzz '^FuzzGridDelta$' -fuzztime 3s ./internal/route &&
    go test -race -run '^$' -fuzz '^FuzzOccupancyPeaks$' -fuzztime 3s ./internal/route &&
    go test -race -run '^$' -fuzz '^FuzzAppendJSON$' -fuzztime 3s ./internal/metrics &&
    go test -race -run '^$' -fuzz '^FuzzEnvelope$' -fuzztime 3s ./internal/service &&
    go test -race -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 3s ./internal/circuit &&
    go test -race -run '^$' -fuzz '^FuzzChannelDensities$' -fuzztime 3s ./internal/metrics
}
step "codec fuzz smoke" fuzz_smoke

# Chaos tier: the fault-injection soak (delay plans must leave routing
# output byte-identical; crashes must degrade, not hang)
# under the race detector, twice, with two fixed fault-schedule seeds: the
# conformance matrix's fault-plan rows on gen.Small, every engine including
# the multi-process TCP mesh, plus the Chaos|Crash tests of mp and parallel
# (event-log reproducibility, crash attribution across real sockets). The
# multi-process mesh's crash rows then run twenty times more: a crashed
# peer's broken pipe can reach a writer before its read pump sees the EOF,
# and that write must degrade the run like any other rank loss.
chaos_soak() {
  CHAOS_SEED="$1" go test -race -count=2 -run 'Chaos|Crash' \
    ./internal/mp ./internal/parallel &&
    CHAOS_SEED="$1" go test -race -count=2 \
      -run 'TestConformance/library/small/.*/.*/.*/.*/chaos=(drop|dup|every|crash)' . &&
    CHAOS_SEED="$1" go test -race -count=20 \
      -run 'TestConformance/library/small/tcp-mesh/.*/.*/w1/chaos=crash1@5' .
}
step "chaos soak (seed 1)" chaos_soak 1
step "chaos soak (seed 2)" chaos_soak 2

# Service soak tier: the twgrd core under a mixed concurrent load —
# cache-hit storms, mid-flight disconnects, SSE consumers, priorities —
# under the race detector, with a full accounting audit, per-key byte
# parity against one-shot runs, graceful drain, and a goroutine-leak
# check (see DESIGN.md §13). SOAK_JOBS scales the volume; 1000 is the
# acceptance floor.
soak_tier() {
  SOAK_JOBS="${SOAK_JOBS:-1000}" go test -race -count=1 \
    -run 'TestServiceSoak' ./internal/service
}
step "service soak (twgrd load + byte parity)" soak_tier

# Scale smoke tier: route synth.100k end to end within wall/RSS budgets and
# a malloc ceiling (DESIGN.md §15) — catches memory-layout regressions at a
# size where they hurt: eager band shards show in RSS, an arena reverting to
# per-net allocation in the malloc count (one slices.Grow per net is 36 600
# mallocs there and ≈ 1 000 on primary2, under the allocation budget below).
# synth.1m runs here too (≈ 5 s with its generation on a 2-core x86-64
# host, 2.4 s of it the route), so the gate sets the SCALE_1M=1 that plain
# `go test` leaves the million-cell preset skipped without.
scale_tier() {
  go test -count=1 -run 'TestScaleSmoke100k' . &&
    SCALE_1M=1 go test -count=1 -timeout 30m -run 'TestScale1M' .
}
step "scale smoke (synth.100k and synth.1m budgets)" scale_tier

# Allocation budget: one hybrid, one row-wise and one net-wise parallel.Run
# at P=2 on the in-process engine, and one serial route.Route at one and at
# two workers, must stay under a committed malloc and byte count (DESIGN.md
# §9) — an append-in-a-loop regression, a per-feedthrough allocation coming
# back, a rank cloning the whole circuit again or copying data it already
# holds, fails here, with no wall clock involved. A primary2
# cache hit through the twgrd handler must stay under a committed byte
# count too: a copy of its 716 KB metrics or a re-marshal fails it. Run
# without -race: the byte budgets only discriminate in a plain build.
alloc_budget() {
  go test -count=1 -run 'TestParallelDriverAllocBudget' . &&
    go test -count=1 -run 'TestHitAllocBudget' ./internal/service
}
step "allocation budget (parallel drivers + serial route)" alloc_budget

# Bench smoke: the serial hot path and the hybrid and net-wise (TCP) P=2
# runs still run end to end under the benchmark harness, and so does
# circuit.Validate on synth.100k and on one row and one net of 2^16 cells
# (the perf ledger itself is `go run ./benchmark`; see DESIGN.md §9).
bench_smoke() {
  go test -run '^$' -bench 'BenchmarkSerialRoute/primary2' -benchtime 1x . &&
    go test -run '^$' -bench 'BenchmarkHybridP2|BenchmarkNetwiseP2' -benchtime 1x ./internal/parallel &&
    go test -run '^$' -bench 'BenchmarkValidate' -benchtime 1x ./internal/circuit
}
step "bench smoke (serial route, hybrid and net-wise P=2, Validate)" bench_smoke

# Trace smoke: `twgr -trace` emits a timeline that `-checktrace` accepts.
# Both paths write the run's Result.Phases (merged across ranks on the
# parallel one) through pipeline.NewTrace (see DESIGN.md §10).
trace_smoke() {
  local tmp
  tmp="$(mktemp -d)"
  go run ./cmd/twgr -preset avq.small -trace "$tmp/serial.json" >/dev/null &&
    go run ./cmd/twgr -checktrace "$tmp/serial.json" >/dev/null &&
    go run ./cmd/twgr -preset avq.small -algo hybrid -p 4 -trace "$tmp/hybrid.json" >/dev/null &&
    go run ./cmd/twgr -checktrace "$tmp/hybrid.json" >/dev/null
  local rc=$?
  rm -rf "$tmp"
  return $rc
}
step "trace smoke (twgr -trace/-checktrace)" trace_smoke

echo "check.sh: all gates passed"
