// Package gen synthesizes row-based standard-cell circuits with the
// statistics of the MCNC layout-synthesis benchmarks the paper evaluates on.
//
// The MCNC benchmark files themselves are not redistributable, so this
// package is the substitution documented in DESIGN.md: it reproduces the
// characteristics the routing algorithms are sensitive to — row count, cell
// count, net count, total pin count, a geometric-locality pin distribution,
// a heavy-tailed net-degree distribution, and (for avq.large) a giant clock
// net alongside 99% small nets, the situation that motivates the paper's
// pin-number-weight net partition.
package gen

import (
	"fmt"
	"sort"

	"parroute/internal/circuit"
	"parroute/internal/geom"
	"parroute/internal/rng"
)

// Config controls synthesis. Zero fields take defaults from Normalize.
type Config struct {
	Name  string
	Rows  int
	Cells int
	Nets  int
	// TargetPins is the total pin count to aim for; the realized count is
	// within a few percent (net degrees are sampled, not solved for).
	TargetPins int
	// GiantNets lists explicit degrees for oversized nets (clock/reset
	// lines). They are generated first and spread across the whole core.
	GiantNets []int
	// MaxDegree caps regular net degrees. Default 24.
	MaxDegree int
	// MeanCellWidth is the average cell width. Default 8.
	MeanCellWidth int
	// LocalityRows / LocalityX control how tightly a net's pins cluster
	// around its center, in rows and in x units. Defaults 1 row and two
	// cell widths — the tight locality of placed standard-cell designs,
	// calibrated so per-channel densities land in the 10-40 track range
	// the MCNC circuits route at.
	LocalityRows int
	LocalityX    int
	// EquivFrac is the fraction of pins given an electrically equivalent
	// twin (side Both); such pins make segments switchable. Row-based
	// standard cells commonly expose pins on both rails (TWGR's handling
	// of equivalent pins is one of its headline features). Default 0.6.
	EquivFrac float64
	Seed      uint64
}

// Normalize fills defaults and returns an error for nonsensical settings.
func (cfg *Config) Normalize() error {
	if cfg.Rows <= 0 || cfg.Cells <= 0 || cfg.Nets <= 0 {
		return fmt.Errorf("gen: rows, cells and nets must be positive (got %d, %d, %d)",
			cfg.Rows, cfg.Cells, cfg.Nets)
	}
	if cfg.Cells < cfg.Rows {
		return fmt.Errorf("gen: need at least one cell per row (%d cells, %d rows)",
			cfg.Cells, cfg.Rows)
	}
	if cfg.Name == "" {
		cfg.Name = "synthetic"
	}
	if cfg.TargetPins <= 0 {
		cfg.TargetPins = 3 * cfg.Nets
	}
	if cfg.MaxDegree <= 0 {
		cfg.MaxDegree = 24
	}
	if cfg.MeanCellWidth <= 0 {
		cfg.MeanCellWidth = 8
	}
	if cfg.LocalityRows <= 0 {
		cfg.LocalityRows = 1
	}
	if cfg.EquivFrac == 0 {
		cfg.EquivFrac = 0.6
	}
	if cfg.EquivFrac < 0 || cfg.EquivFrac > 1 {
		return fmt.Errorf("gen: EquivFrac %v outside [0,1]", cfg.EquivFrac)
	}
	return nil
}

// Generate synthesizes a circuit from the configuration. The result is
// deterministic in cfg (including Seed) and always passes Validate.
func Generate(cfg Config) (*circuit.Circuit, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed ^ hashName(cfg.Name))

	c := &circuit.Circuit{Name: cfg.Name, CellHeight: 12, FeedWidth: 2}

	// Rows and cells: distribute cells evenly, widths ~N(mean, mean/3).
	perRow := cfg.Cells / cfg.Rows
	extra := cfg.Cells % cfg.Rows
	for row := 0; row < cfg.Rows; row++ {
		c.AddRow()
		n := perRow
		if row < extra {
			n++
		}
		for i := 0; i < n; i++ {
			w := r.NormInt(float64(cfg.MeanCellWidth), float64(cfg.MeanCellWidth)/3, 3)
			c.AddCell(row, w)
		}
	}
	coreW := c.CoreWidth()
	localX := cfg.LocalityX
	if localX <= 0 {
		localX = 2 * cfg.MeanCellWidth
	}

	// Net degrees: giants first, then regular nets with a heavy-tailed
	// (shifted geometric) degree distribution tuned to hit TargetPins.
	degrees := make([]int, 0, cfg.Nets)
	giantPins := 0
	for _, d := range cfg.GiantNets {
		if d < 2 {
			return nil, fmt.Errorf("gen: giant net degree %d < 2", d)
		}
		degrees = append(degrees, d)
		giantPins += d
	}
	regular := cfg.Nets - len(cfg.GiantNets)
	if regular < 0 {
		return nil, fmt.Errorf("gen: more giant nets (%d) than nets (%d)",
			len(cfg.GiantNets), cfg.Nets)
	}
	remaining := cfg.TargetPins - giantPins
	if regular > 0 && remaining < 2*regular {
		return nil, fmt.Errorf("gen: TargetPins %d too small for %d regular nets",
			cfg.TargetPins, regular)
	}
	if regular > 0 {
		meanDeg := float64(remaining) / float64(regular) // >= 2
		// degree = 2 + Geometric(p) has mean 2 + (1-p)/p; solve for p.
		p := 1.0 / (meanDeg - 1.0)
		if p > 1 {
			p = 1
		}
		for i := 0; i < regular; i++ {
			d := 2 + r.Geometric(p)
			if d > cfg.MaxDegree {
				d = cfg.MaxDegree
			}
			degrees = append(degrees, d)
		}
	}

	// Pins: each net picks a center and clusters pins around it. Giant
	// nets use the whole core as their spread (clock trees go everywhere).
	// They are listed under their cells and nets in one pass at the end.
	pins := make([]circuit.Pin, 0, cfg.TargetPins)
	for i, deg := range degrees {
		name := fmt.Sprintf("n%d", i)
		giant := i < len(cfg.GiantNets)
		if giant {
			name = fmt.Sprintf("clk%d", i)
		}
		netID := c.AddNet(name)
		centerRow := r.Intn(cfg.Rows)
		centerX := r.Intn(geom.Max(coreW, 1))
		// Standard-cell placement keeps most of a net's pins in one or two
		// adjacent rows; the 0.5 factor puts roughly 60% of the pins of a
		// LocalityRows=1 net in its center row.
		spreadRows := 0.5 * float64(cfg.LocalityRows)
		spreadX := float64(localX)
		if giant {
			spreadRows = float64(cfg.Rows) / 2
			spreadX = float64(coreW) / 2
		}
		for j := 0; j < deg; j++ {
			row := geom.Clamp(r.NormInt(float64(centerRow), spreadRows, 0), 0, cfg.Rows-1)
			x := geom.Clamp(r.NormInt(float64(centerX), spreadX, 0), 0, coreW-1)
			cellID := cellNear(c, row, x)
			cell := &c.Cells[cellID]
			offset := 0
			if cell.Width > 1 {
				offset = r.Intn(int(cell.Width))
			}
			side := circuit.Bottom
			switch f := r.Float64(); {
			case f < cfg.EquivFrac:
				side = circuit.Both
			case f < cfg.EquivFrac+(1-cfg.EquivFrac)/2:
				side = circuit.Top
			}
			pins = append(pins, circuit.Pin{Net: int32(netID), Cell: int32(cellID), Offset: int32(offset), Side: side})
		}
	}
	c.AddPins(pins)

	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated invalid circuit: %w", err)
	}
	return c, nil
}

// cellNear returns the cell in the given row closest to x.
func cellNear(c *circuit.Circuit, row, x int) int {
	cells := c.RowCells(row)
	idx := sort.Search(len(cells), func(i int) bool {
		return int(c.Cells[cells[i]].X) > x
	})
	if idx > 0 {
		idx--
	}
	return int(cells[idx])
}

func hashName(s string) uint64 {
	// FNV-1a; mixes the preset name into the seed so different circuits
	// generated with the same seed differ.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
