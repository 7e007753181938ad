package parallel

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/metrics"
	"parroute/internal/mp"
	"parroute/internal/partition"
	"parroute/internal/pipeline"
	"parroute/internal/route"
)

func testCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	return gen.Small(42) // 8 rows, ~240 cells, ~260 nets
}

func baseline(t *testing.T, c *circuit.Circuit) *metrics.Result {
	t.Helper()
	res, err := RunBaseline(context.Background(), c, Options{Procs: 1, Route: route.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllNetsConnectedUnderPartitioning(t *testing.T) {
	// Forced edges mean a net could not be connected through adjacent
	// rows — the fake-pin/feedthrough machinery must prevent that at any
	// worker count.
	c := testCircuit(t)
	for _, algo := range Algorithms() {
		for _, p := range []int{2, 3, 4, 8} {
			res, err := Run(context.Background(), c, Options{Algo: algo, Procs: p, Route: route.Options{Seed: 1}})
			if err != nil {
				t.Fatalf("%v p=%d: %v", algo, p, err)
			}
			if res.ForcedEdges != 0 {
				t.Errorf("%v p=%d: %d forced edges", algo, p, res.ForcedEdges)
			}
		}
	}
}

func TestQualityDegradationBounded(t *testing.T) {
	c := testCircuit(t)
	base := baseline(t, c)
	for _, algo := range Algorithms() {
		for _, p := range []int{2, 4} {
			res, err := Run(context.Background(), c, Options{Algo: algo, Procs: p, Route: route.Options{Seed: 1}})
			if err != nil {
				t.Fatalf("%v p=%d: %v", algo, p, err)
			}
			scaled := res.ScaledTracks(base)
			if scaled > 1.5 {
				t.Errorf("%v p=%d: scaled tracks %.3f — partitioning destroyed quality", algo, p, scaled)
			}
			if scaled < 0.8 {
				t.Errorf("%v p=%d: scaled tracks %.3f — parallel run suspiciously beats serial "+
					"(likely missing wires)", algo, p, scaled)
			}
		}
	}
}

func TestWireConservation(t *testing.T) {
	// Every multi-pin net must contribute wires at any worker count, and
	// the per-net wire counts must match nodes-1 (tree property) for
	// hybrid and netwise (whole-net connection).
	c := testCircuit(t)
	base := baseline(t, c)
	baseNets := map[int]int{}
	for i := range base.Wires {
		baseNets[int(base.Wires[i].Net)]++
	}
	for _, algo := range Algorithms() {
		res, err := Run(context.Background(), c, Options{Algo: algo, Procs: 4, Route: route.Options{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		gotNets := map[int]int{}
		for i := range res.Wires {
			gotNets[int(res.Wires[i].Net)]++
		}
		for n := range baseNets {
			if gotNets[n] == 0 {
				t.Errorf("%v: net %d lost all its wires", algo, n)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	c := testCircuit(t)
	if _, err := Run(context.Background(), c, Options{Procs: 0}); err == nil {
		t.Fatal("Procs=0 accepted")
	}
	if _, err := Run(context.Background(), c, Options{Procs: 1000}); err == nil {
		t.Fatal("more workers than rows accepted")
	}
	if _, err := Run(context.Background(), c, Options{Algo: Algorithm(99), Procs: 2}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestDistRanksMismatchRejected: Procs is what the algorithms partition
// for; a mesh of a different width must be refused, not reconciled.
func TestDistRanksMismatchRejected(t *testing.T) {
	opt := Options{
		Algo:  RowWise,
		Procs: 4,
		Mode:  mp.TCP,
		Route: route.Options{Seed: 7},
		Dist:  &mp.NetConfig{Rank: 0, Ranks: 2, Addr: "127.0.0.1:1"},
	}
	if _, err := Run(context.Background(), testCircuit(t), opt); err == nil {
		t.Fatal("Dist.Ranks != Procs accepted")
	}
}

func TestNetPartitionMethodsAllWork(t *testing.T) {
	c := testCircuit(t)
	base := baseline(t, c)
	for _, m := range partition.Methods() {
		res, err := Run(context.Background(), c, Options{Algo: Hybrid, Procs: 4,
			Route: route.Options{Seed: 1}, Net: partition.Config{Method: m}})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.ForcedEdges != 0 {
			t.Errorf("%v: forced edges", m)
		}
		if res.ScaledTracks(base) > 1.5 {
			t.Errorf("%v: scaled %.2f", m, res.ScaledTracks(base))
		}
	}
}

func TestNetwiseSyncKnob(t *testing.T) {
	c := testCircuit(t)
	// More syncs must not be cheaper (simulated time) at the same quality
	// scale; both settings must route every net.
	blind, err := Run(context.Background(), c, Options{Algo: NetWise, Procs: 4,
		Route: route.Options{Seed: 1}, NetwiseSyncPerPass: -1})
	if err != nil {
		t.Fatal(err)
	}
	chatty, err := Run(context.Background(), c, Options{Algo: NetWise, Procs: 4,
		Route: route.Options{Seed: 1}, NetwiseSyncPerPass: 8})
	if err != nil {
		t.Fatal(err)
	}
	if blind.ForcedEdges != 0 || chatty.ForcedEdges != 0 {
		t.Fatal("sync setting broke connectivity")
	}
	if blind.TotalTracks <= 0 || chatty.TotalTracks <= 0 {
		t.Fatal("degenerate results")
	}
}

func TestComputeCrossings(t *testing.T) {
	// Hand-built circuit: 4 rows, 2 blocks; one net spanning the blocks
	// must produce exactly one fake-pin pair at the boundary; one net
	// inside a block must produce none.
	c := &circuit.Circuit{Name: "x", CellHeight: 10, FeedWidth: 2}
	for r := 0; r < 4; r++ {
		c.AddRow()
		c.AddCell(r, 100)
	}
	cross := c.AddNet("cross")
	c.AddPin(int(c.RowCells(0)[0]), cross, 10, circuit.Bottom)
	c.AddPin(int(c.RowCells(3)[0]), cross, 50, circuit.Top)
	local := c.AddNet("local")
	c.AddPin(int(c.RowCells(0)[0]), local, 20, circuit.Bottom)
	c.AddPin(int(c.RowCells(1)[0]), local, 30, circuit.Top)

	blocks := []partition.RowBlock{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 3}}
	owner := []int{0, 0}
	specs := computeCrossings(c, blocks, owner, 0)
	if len(specs[0]) != 1 || len(specs[1]) != 1 {
		t.Fatalf("spec counts: %d, %d (want 1, 1)", len(specs[0]), len(specs[1]))
	}
	lo, hi := specs[0][0], specs[1][0]
	if int(lo.Net) != cross || int(hi.Net) != cross {
		t.Fatal("specs attached to the wrong net")
	}
	if lo.Row != 1 || lo.Side != circuit.Top {
		t.Fatalf("lower spec = %+v", lo)
	}
	if hi.Row != 2 || hi.Side != circuit.Bottom {
		t.Fatalf("upper spec = %+v", hi)
	}
	if lo.X != hi.X {
		t.Fatal("pair at different columns")
	}
	// A rank that owns no nets emits nothing.
	specs = computeCrossings(c, blocks, owner, 1)
	if len(specs[0])+len(specs[1]) != 0 {
		t.Fatal("non-owner emitted specs")
	}
}

func TestBuildSubCircuit(t *testing.T) {
	c := testCircuit(t)
	blocks, _ := partition.RowBlocks(c, 2)
	fakes := []FakePinSpec{{Net: 0, X: 10, Row: int32(blocks[0].Hi), Side: circuit.Top}}
	sub := buildBlockCircuit(c, blocks[0], fakes)
	if err := sub.Validate(); err != nil {
		t.Fatalf("sub-circuit invalid: %v", err)
	}
	// Every net pin inside the sub-circuit lies in the block or is fake.
	for n := range sub.Nets {
		for _, pid := range sub.NetPins(n) {
			p := &sub.Pins[pid]
			if !p.Fake && !blocks[0].Contains(int(p.Row)) {
				t.Fatalf("net %d keeps foreign pin in row %d", n, p.Row)
			}
		}
	}
	// Foreign rows are empty placeholders.
	for r := blocks[1].Lo; r <= blocks[1].Hi; r++ {
		if len(sub.RowCells(r)) != 0 {
			t.Fatalf("foreign row %d holds %d cells", r, len(sub.RowCells(r)))
		}
	}
	// The fake pin exists and is attached.
	last := &sub.Pins[len(sub.Pins)-1]
	if !last.Fake || last.Net != 0 {
		t.Fatalf("fake pin missing: %+v", last)
	}
	// The base circuit is untouched.
	if err := c.Validate(); err != nil {
		t.Fatalf("base circuit corrupted: %v", err)
	}
}

func TestMergePhasesAggregation(t *testing.T) {
	sums := []Summary{
		Summary{Rank: 0, Phases: []metrics.Phase{{Name: "a", Elapsed: 5}, {Name: "b", Elapsed: 2}}},
		Summary{Rank: 1, Phases: []metrics.Phase{{Name: "a", Elapsed: 3}, {Name: "b", Elapsed: 9}}},
	}
	got := mergePhases(sums)
	if len(got) != 2 || got[0].Name != "a" || got[0].Elapsed != 5 || got[1].Elapsed != 9 {
		t.Fatalf("mergePhases = %+v", got)
	}
}

// TestMergePhasesKeepsPhasesMissingOnRankZero pins the regression fix: the
// old aggregation was keyed on rank 0's phase list, so a phase another
// rank recorded (e.g. extra sync rounds, or rank 0 skipping an empty
// stage) silently vanished from the merged result.
func TestMergePhasesKeepsPhasesMissingOnRankZero(t *testing.T) {
	sums := []Summary{
		Summary{Rank: 0, Phases: []metrics.Phase{{Name: "a", Elapsed: 5}}},
		Summary{Rank: 1, Phases: []metrics.Phase{
			{Name: "a", Elapsed: 3},
			{Name: "only-on-one", Elapsed: 7},
		}},
	}
	got := mergePhases(sums)
	if len(got) != 2 {
		t.Fatalf("merged %d phases, want 2: %+v", len(got), got)
	}
	if got[1].Name != "only-on-one" || got[1].Elapsed != 7 {
		t.Fatalf("phase absent on rank 0 was dropped or mangled: %+v", got)
	}
}

// TestMergePhasesSumsCounters: per-phase counters are totals of per-rank
// work, so they add across ranks (while elapsed takes the slowest rank,
// the parallel critical path).
func TestMergePhasesSumsCounters(t *testing.T) {
	sums := []Summary{
		Summary{Rank: 0, Phases: []metrics.Phase{{Name: "connect", Elapsed: 4,
			Counters: []metrics.Counter{{Name: "wires", Value: 10}}}}},
		Summary{Rank: 1, Phases: []metrics.Phase{{Name: "connect", Elapsed: 6,
			Counters: []metrics.Counter{{Name: "wires", Value: 32}, {Name: "forced-edges", Value: 1}}}}},
	}
	got := mergePhases(sums)
	if len(got) != 1 || got[0].Elapsed != 6 {
		t.Fatalf("mergePhases = %+v", got)
	}
	cs := got[0].Counters
	if len(cs) != 2 || cs[0].Name != "wires" || cs[0].Value != 42 ||
		cs[1].Name != "forced-edges" || cs[1].Value != 1 {
		t.Fatalf("merged counters = %+v", cs)
	}
}

func TestForEachChunk(t *testing.T) {
	var bounds [][2]int
	err := forEachChunk(10, 3, func(lo, hi int) error {
		bounds = append(bounds, [2]int{lo, hi})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 3 {
		t.Fatalf("%d chunks, want 3", len(bounds))
	}
	covered := 0
	prev := 0
	for _, b := range bounds {
		if b[0] != prev {
			t.Fatalf("gap before chunk %v", b)
		}
		covered += b[1] - b[0]
		prev = b[1]
	}
	if covered != 10 {
		t.Fatalf("covered %d of 10", covered)
	}
	// Empty input still invokes the callback the same number of times
	// (workers must stay in lockstep even with no local work).
	calls := 0
	if err := forEachChunk(0, 4, func(lo, hi int) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("%d calls on empty input, want 4", calls)
	}
}

func TestRowWiseQualityDegradesWithWorkers(t *testing.T) {
	// The paper's central quality observation: row-wise quality gets
	// worse as workers increase (Table 2); the serial run is the best.
	c := testCircuit(t)
	base := baseline(t, c)
	prev := float64(0.99) // allow tiny noise at p=2
	for _, p := range []int{2, 8} {
		res, err := Run(context.Background(), c, Options{Algo: RowWise, Procs: p, Route: route.Options{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		scaled := res.ScaledTracks(base)
		if scaled < prev-0.05 {
			t.Fatalf("p=%d scaled %.3f dropped well below p/2's %.3f", p, scaled, prev)
		}
		prev = scaled
	}
}

func TestHybridBeatsRowWiseQuality(t *testing.T) {
	// §6: the hybrid algorithm provides the best quality among the
	// parallel algorithms. Compare at 8 workers on a mid-size circuit.
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	row, err := Run(context.Background(), c, Options{Algo: RowWise, Procs: 8, Route: route.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Run(context.Background(), c, Options{Algo: Hybrid, Procs: 8, Route: route.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if hyb.TotalTracks > row.TotalTracks {
		t.Fatalf("hybrid (%d tracks) worse than row-wise (%d tracks)",
			hyb.TotalTracks, row.TotalTracks)
	}
}

func TestSummariesMergeCounts(t *testing.T) {
	c := testCircuit(t)
	res, err := Run(context.Background(), c, Options{Algo: RowWise, Procs: 4, Route: route.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Feedthrough count in the merged result must equal the feedthrough
	// wires' implied count: every ft pin is bound to a net and becomes a
	// node; we can't count them from wires directly, but the count must
	// be positive and the core width must cover every wire.
	if res.Feedthroughs <= 0 {
		t.Fatal("no feedthroughs reported")
	}
	maxX := 0
	for i := range res.Wires {
		if span := res.Wires[i].Span(); !span.Empty() && int(span.Hi) > maxX {
			maxX = int(span.Hi)
		}
	}
	if res.CoreWidth < maxX-1 {
		t.Fatalf("core width %d but wires reach %d", res.CoreWidth, maxX)
	}
	// Channel densities must be defined for all channels.
	if len(res.ChannelDensity) != c.NumChannels() {
		t.Fatalf("%d channel densities for %d channels",
			len(res.ChannelDensity), c.NumChannels())
	}
}

func TestWorkerSeedsDiffer(t *testing.T) {
	seen := map[uint64]bool{}
	for rank := 0; rank < 16; rank++ {
		s := workerSeed(7, rank)
		if seen[s] {
			t.Fatalf("duplicate worker seed at rank %d", rank)
		}
		seen[s] = true
	}
	if workerSeed(7, 0) != 7 {
		t.Fatal("rank 0 must keep the base seed (serial equivalence)")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Algorithms() {
		names[a.String()] = true
	}
	if len(names) != 3 {
		t.Fatalf("algorithm names not distinct: %v", names)
	}
	if Algorithm(42).String() == "" {
		t.Fatal("unknown algorithm should format")
	}
}

func TestChannelDensitySumStableAcrossBlockCounts(t *testing.T) {
	// Wire multiset per net should be "similar" across P: at least the
	// sorted per-channel densities should not contain empty channels that
	// serial fills (sanity against dropped channels in the merge).
	c := testCircuit(t)
	base := baseline(t, c)
	res, err := Run(context.Background(), c, Options{Algo: Hybrid, Procs: 4, Route: route.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for ch, d := range base.ChannelDensity {
		if d > 0 && res.ChannelDensity[ch] == 0 {
			t.Errorf("channel %d: serial density %d but parallel 0 — wires lost in merge", ch, d)
		}
	}
	sort.Ints(res.ChannelDensity) // exercise no panic; densities well-formed
}

// stageLog records, across every rank of a run, the stage names in the
// order first seen and each stage's counter names in the order first
// counted. Every rank walks the same list in order, so first-seen order is
// the list's order however the ranks interleave.
type stageLog struct {
	mu       sync.Mutex
	stages   []string
	counters map[string][]string
}

func (l *stageLog) StageStart(stage string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !slices.Contains(l.stages, stage) {
		l.stages = append(l.stages, stage)
	}
}

func (l *stageLog) StageEnd(stage string, m pipeline.StageMetrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range m.Counters {
		if !slices.Contains(l.counters[stage], c.Name) {
			l.counters[stage] = append(l.counters[stage], c.Name)
		}
	}
}

// TestDriverStageLists pins what a driver's stage list looks like from
// outside: the stage names, in order, and the counters each reports. The
// benchmark (benchmark/spec.go parallelStages, routeCounterStages) and
// `twgr -trace` consumers key on these strings.
func TestDriverStageLists(t *testing.T) {
	type st struct {
		name     string
		counters []string
	}
	blockHead := []st{
		{"crossings", []string{"fake-pins"}},
		{"subcircuit", nil},
		{"steiner", []string{"segments"}},
		{"coarse", []string{"coarse-flips"}},
		{"ft-insert", []string{"inserted-fts"}},
		{"ft-assign", []string{"extra-fts"}}, // the serial router's own stage, counter included
	}
	tail := []st{
		{"connect", []string{"wires", "forced-edges"}},
		{"stitch", nil},
		{"switch-opt", []string{"switch-flips"}},
		{"gather", nil},
	}
	want := map[Algorithm][]st{
		RowWise: slices.Concat(blockHead, tail),
		Hybrid:  slices.Concat(blockHead, tail),
		NetWise: slices.Concat([]st{
			{"steiner", []string{"segments"}},
			{"coarse", []string{"coarse-flips"}},
			{"ft-insert", []string{"inserted-fts"}},
			{"ft-assign", nil},
		}, tail),
	}
	c := testCircuit(t)
	for _, algo := range Algorithms() {
		log := &stageLog{counters: map[string][]string{}}
		// The receive bound turns a protocol fault into this test's error,
		// not a hang to the package timeout.
		_, err := Run(context.Background(), c, Options{
			Algo: algo, Procs: 2, Mode: mp.Inproc, Route: route.Options{Seed: 1},
			Limits:    mp.Limits{RecvTimeout: 30 * time.Second},
			Observers: []pipeline.Observer{log},
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		var got []st
		for _, name := range log.stages {
			got = append(got, st{name, log.counters[name]})
		}
		if !reflect.DeepEqual(got, want[algo]) {
			t.Errorf("%v stage list:\n got %v\nwant %v", algo, got, want[algo])
		}
	}
}

// TestPeerBatchesOnlyRead: hybrid and row-wise at P=3 on mp.Inproc, where a
// received batch is the sender's memory, route exactly as on mp.Virtual,
// which runs one rank at a time. The middle rank assembles its redistributed
// wires between two peers' batches, and rank 0 the merge. scripts/check.sh
// runs this 20 times under -race, where a write to memory a peer still
// reads is a reported race.
func TestPeerBatchesOnlyRead(t *testing.T) {
	c := testCircuit(t)
	for _, algo := range []Algorithm{RowWise, Hybrid} {
		var want *metrics.Result
		for _, mode := range []mp.Mode{mp.Virtual, mp.Inproc} {
			res, err := Run(context.Background(), c, Options{Algo: algo, Procs: 3, Mode: mode, Route: route.Options{Seed: 4}})
			if err != nil {
				t.Fatalf("%v on %v: %v", algo, mode, err)
			}
			if want == nil {
				want = res
			} else if !slices.Equal(res.Wires, want.Wires) || res.TotalTracks != want.TotalTracks {
				t.Fatalf("%v: %d wires and %d tracks on %v, %d and %d on mp.Virtual",
					algo, len(res.Wires), res.TotalTracks, mode, len(want.Wires), want.TotalTracks)
			}
		}
	}
}
