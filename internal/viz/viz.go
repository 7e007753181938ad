// Package viz renders a routed standard-cell layout as SVG: cell rows
// (feedthrough cells highlighted), channel wires on their assigned
// detailed-router tracks, and vertical pin connections. It exists for
// inspection and debugging — a routed avq.large is a few megabytes of
// SVG, but primary2-class circuits open comfortably in a browser.
package viz

import (
	"fmt"
	"io"

	"parroute/internal/channel"
	"parroute/internal/circuit"
	"parroute/internal/metrics"
)

// Options controls rendering.
type Options struct {
	// Scale is pixels per x unit. Default 1.
	Scale float64
	// TrackPitch is the pixel height of one channel track. Default 3.
	TrackPitch float64
	// RowHeight is the pixel height of a cell row. Default 14.
	RowHeight float64
	// MaxWires caps the rendered wire count (0 = unlimited); the cap
	// keeps pathological SVGs writable.
	MaxWires int
}

func (o *Options) normalize() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.TrackPitch <= 0 {
		o.TrackPitch = 3
	}
	if o.RowHeight <= 0 {
		o.RowHeight = 14
	}
}

// WriteSVG renders the circuit with its routed wires. The wires are
// placed on concrete tracks by the detailed channel router, so the
// picture shows the realized layout, not just density estimates.
func WriteSVG(w io.Writer, c *circuit.Circuit, wires []metrics.Wire, opt Options) error {
	opt.normalize()
	numCh := c.NumChannels()
	byCh := channel.FromWires(numCh, wires)
	asgs := make([]channel.Assignment, numCh)
	tracks := make([]int, numCh)
	for ch := range byCh {
		asgs[ch] = channel.Route(byCh[ch])
		tracks[ch] = asgs[ch].Tracks
	}

	// Vertical layout, bottom-up like the row numbering: channel 0,
	// row 0, channel 1, row 1, ... channel N. SVG y grows downward, so
	// compute total height first and flip.
	chTop := make([]float64, numCh) // y of each channel's top edge
	rowTop := make([]float64, len(c.Rows))
	y := 0.0
	for i := numCh - 1; i >= 0; i-- {
		chTop[i] = y
		y += float64(tracks[i]+1) * opt.TrackPitch
		if i > 0 {
			rowTop[i-1] = y
			y += opt.RowHeight
		}
	}
	height := y
	width := float64(c.CoreWidth()) * opt.Scale

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	fmt.Fprintf(w, `<rect width="%.0f" height="%.0f" fill="#ffffff"/>`+"\n", width, height)

	// Cell rows.
	for r := range c.Rows {
		for _, cid := range c.RowCells(r) {
			cell := &c.Cells[cid]
			fill := "#d9e2ec"
			if cell.Feed {
				fill = "#f2c94c"
			}
			fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#829ab1" stroke-width="0.3"/>`+"\n",
				float64(cell.X)*opt.Scale, rowTop[r],
				float64(cell.Width)*opt.Scale, opt.RowHeight, fill)
		}
	}

	// Channel wires on their assigned tracks.
	drawn := 0
	for ch := range byCh {
		for i, cw := range byCh[ch] {
			if cw.Span.Empty() {
				continue
			}
			if opt.MaxWires > 0 && drawn >= opt.MaxWires {
				break
			}
			drawn++
			trackY := chTop[ch] + float64(asgs[ch].Track[i]+1)*opt.TrackPitch
			color := wireColor(cw.Net)
			fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="0.8"/>`+"\n",
				float64(cw.Span.Lo)*opt.Scale, trackY,
				float64(cw.Span.Hi)*opt.Scale, trackY, color)
			// Vertical stubs to the channel edges at contact columns.
			for _, x := range cw.Top {
				fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="0.6"/>`+"\n",
					float64(x)*opt.Scale, chTop[ch], float64(x)*opt.Scale, trackY, color)
			}
			for _, x := range cw.Bottom {
				bottom := chTop[ch] + float64(tracks[ch]+1)*opt.TrackPitch
				fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="0.6"/>`+"\n",
					float64(x)*opt.Scale, trackY, float64(x)*opt.Scale, bottom, color)
			}
		}
	}
	fmt.Fprintln(w, `</svg>`)
	return nil
}

// wireColor gives each net a stable color from a small palette.
func wireColor(net int) string {
	palette := []string{
		"#e63946", "#2a9d8f", "#264653", "#e76f51", "#6a4c93",
		"#1d3557", "#f4a261", "#457b9d", "#8338ec", "#06d6a0",
	}
	if net < 0 {
		return "#999999"
	}
	return palette[net%len(palette)]
}
