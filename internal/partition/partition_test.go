package partition

import (
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/gen"
)

func TestRowBlocksCoverAndBalance(t *testing.T) {
	c, err := gen.Benchmark("primary2", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 7, 8, len(c.Rows)} {
		blocks, err := RowBlocks(c, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if len(blocks) != p {
			t.Fatalf("p=%d: got %d blocks", p, len(blocks))
		}
		// Contiguous cover of all rows, no gaps or overlaps.
		row := 0
		for k, b := range blocks {
			if b.Lo != row {
				t.Fatalf("p=%d block %d starts at %d, want %d", p, k, b.Lo, row)
			}
			if b.Hi < b.Lo {
				t.Fatalf("p=%d block %d empty", p, k)
			}
			row = b.Hi + 1
		}
		if row != len(c.Rows) {
			t.Fatalf("p=%d blocks end at %d of %d rows", p, row, len(c.Rows))
		}
		// Cell balance within 3x of ideal (blocks are row-granular).
		if p < len(c.Rows)/2 {
			ideal := len(c.Cells) / p
			for k, b := range blocks {
				cells := 0
				for r := b.Lo; r <= b.Hi; r++ {
					cells += len(c.RowCells(r))
				}
				if cells > 3*ideal {
					t.Fatalf("p=%d block %d holds %d cells (ideal %d)", p, k, cells, ideal)
				}
			}
		}
	}
}

func TestRowBlocksErrors(t *testing.T) {
	c := gen.Tiny(1)
	if _, err := RowBlocks(c, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := RowBlocks(c, len(c.Rows)+1); err == nil {
		t.Fatal("more workers than rows accepted")
	}
}

func TestBlockOf(t *testing.T) {
	blocks := []RowBlock{{0, 2}, {3, 5}, {6, 9}}
	cases := map[int]int{0: 0, 2: 0, 3: 1, 5: 1, 6: 2, 9: 2}
	for row, want := range cases {
		if got := BlockOf(blocks, row); got != want {
			t.Errorf("BlockOf(%d) = %d, want %d", row, got, want)
		}
	}
	if BlockOf(blocks, 10) != -1 || BlockOf(blocks, -1) != -1 {
		t.Fatal("out-of-range row should map to -1")
	}
}

func TestNetsAllMethodsAssignEveryNet(t *testing.T) {
	c, err := gen.Benchmark("primary2", 1)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	blocks, _ := RowBlocks(c, p)
	for _, m := range Methods() {
		owner, err := Nets(c, blocks, p, Config{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(owner) != len(c.Nets) {
			t.Fatalf("%v: %d owners for %d nets", m, len(owner), len(c.Nets))
		}
		used := map[int]bool{}
		for n, o := range owner {
			if o < 0 || o >= p {
				t.Fatalf("%v: net %d owned by %d", m, n, o)
			}
			used[o] = true
		}
		if len(used) != p {
			t.Fatalf("%v: only %d of %d workers received nets", m, len(used), p)
		}
		// Pin load balance: all methods use the fill-to-average rule, so
		// no worker may exceed ~2x the average.
		st := Load(c, owner, p)
		if st.Imbalance > 2 {
			t.Fatalf("%v: imbalance %.2f", m, st.Imbalance)
		}
	}
}

func TestNetsSingleWorker(t *testing.T) {
	c := gen.Tiny(1)
	owner, err := Nets(c, nil, 1, Config{Method: PinWeight})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range owner {
		if o != 0 {
			t.Fatal("single worker must own everything")
		}
	}
}

func TestNetsErrors(t *testing.T) {
	c := gen.Tiny(1)
	if _, err := Nets(c, nil, 0, Config{}); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := Nets(c, nil, 3, Config{Method: Density}); err == nil {
		t.Fatal("density method without blocks accepted")
	}
}

func TestPinWeightSpreadsGiantNets(t *testing.T) {
	c, err := gen.Benchmark("avq.large", 1)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	blocks, _ := RowBlocks(c, p)
	owner, err := Nets(c, blocks, p, Config{Method: PinWeight})
	if err != nil {
		t.Fatal(err)
	}
	// The four giant clock nets (IDs 0..3) must be round-robined over
	// distinct workers.
	seen := map[int]bool{}
	for n := 0; n < 4; n++ {
		if seen[owner[n]] {
			t.Fatalf("giant nets share a worker: owners %d %d %d %d",
				owner[0], owner[1], owner[2], owner[3])
		}
		seen[owner[n]] = true
	}
}

func TestPinWeightBalancesSteinerCost(t *testing.T) {
	// Deterministic version of the paper's AVQ-LARGE scenario: several
	// large (but below the fast-path threshold, so quadratic-cost) nets
	// whose pins all sit around the same rows. Center stacks them on one
	// worker; pin-number-weight round-robins them.
	c := &circuit.Circuit{Name: "clocky", CellHeight: 10, FeedWidth: 2}
	const rows = 8
	for r := 0; r < rows; r++ {
		c.AddRow()
		for i := 0; i < 64; i++ {
			c.AddCell(r, 10)
		}
	}
	// 4 large nets, 120 pins each, all centered on the same rows.
	for g := 0; g < 4; g++ {
		n := c.AddNet("")
		for i := 0; i < 120; i++ {
			r := i % rows
			c.AddPin(int(c.RowCells(r)[(g*13+i)%64]), n, 1, circuit.Bottom)
		}
	}
	// Plus small filler nets.
	for i := 0; i < 200; i++ {
		n := c.AddNet("")
		r := i % (rows - 1)
		c.AddPin(int(c.RowCells(r)[i%64]), n, 2, circuit.Bottom)
		c.AddPin(int(c.RowCells(r + 1)[(i+7)%64]), n, 3, circuit.Top)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	const p = 4
	blocks, _ := RowBlocks(c, p)
	pwOwner, err := Nets(c, blocks, p, Config{Method: PinWeight})
	if err != nil {
		t.Fatal(err)
	}
	ceOwner, err := Nets(c, blocks, p, Config{Method: Center})
	if err != nil {
		t.Fatal(err)
	}
	pw := SteinerLoad(c, pwOwner, p)
	ce := SteinerLoad(c, ceOwner, p)
	if pw.Imbalance >= ce.Imbalance {
		t.Fatalf("pinweight Steiner imbalance %.2f not better than center %.2f",
			pw.Imbalance, ce.Imbalance)
	}
	if pw.Imbalance > 1.6 {
		t.Fatalf("pinweight imbalance %.2f too high for round-robined equal giants", pw.Imbalance)
	}
}

func TestDensityMethodPrefersMajorityBlock(t *testing.T) {
	// Build a circuit with two far-apart clusters of nets; the density
	// method must keep each cluster's nets with the block holding them.
	c := &circuit.Circuit{Name: "two", CellHeight: 10, FeedWidth: 2}
	for r := 0; r < 4; r++ {
		c.AddRow()
		for i := 0; i < 4; i++ {
			c.AddCell(r, 10)
		}
	}
	// 8 nets fully in rows 0-1, 8 nets fully in rows 2-3.
	for i := 0; i < 16; i++ {
		n := c.AddNet("")
		base := 0
		if i >= 8 {
			base = 2
		}
		c.AddPin(int(c.RowCells(base)[i%4]), n, 1, circuit.Bottom)
		c.AddPin(int(c.RowCells(base + 1)[i%4]), n, 2, circuit.Top)
	}
	blocks := []RowBlock{{0, 1}, {2, 3}}
	owner, err := Nets(c, blocks, 2, Config{Method: Density})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 8; n++ {
		if owner[n] != 0 {
			t.Fatalf("lower-cluster net %d owned by %d", n, owner[n])
		}
	}
	for n := 8; n < 16; n++ {
		if owner[n] != 1 {
			t.Fatalf("upper-cluster net %d owned by %d", n, owner[n])
		}
	}
}

func TestCenterKeepsVerticallyCloseNetsTogether(t *testing.T) {
	c, err := gen.Benchmark("primary2", 2)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	blocks, _ := RowBlocks(c, p)
	owner, err := Nets(c, blocks, p, Config{Method: Center})
	if err != nil {
		t.Fatal(err)
	}
	// Workers' nets must be stratified by y: the mean center of worker
	// k's nets must increase with k.
	sums := make([]float64, p)
	counts := make([]float64, p)
	for n := range c.Nets {
		pins := c.NetPins(n)
		if len(pins) == 0 {
			continue
		}
		y := 0
		for _, pid := range pins {
			y += int(c.Pins[pid].Row)
		}
		sums[owner[n]] += float64(y) / float64(len(pins))
		counts[owner[n]]++
	}
	prev := -1.0
	for k := 0; k < p; k++ {
		mean := sums[k] / counts[k]
		if mean <= prev {
			t.Fatalf("worker %d mean center %.1f not above worker %d's %.1f",
				k, mean, k-1, prev)
		}
		prev = mean
	}
}

func TestLoadStats(t *testing.T) {
	c := gen.Tiny(1)
	owner := make([]int, len(c.Nets)) // everything on worker 0 of 2
	st := Load(c, owner, 2)
	if st.Imbalance != 2 {
		t.Fatalf("all-on-one imbalance = %v, want 2", st.Imbalance)
	}
	if st.Pins[1] != 0 {
		t.Fatal("worker 1 should hold nothing")
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range Methods() {
		if m.String() == "" {
			t.Fatalf("method %d has empty name", m)
		}
	}
	if Method(42).String() == "" {
		t.Fatal("unknown method should format")
	}
}
