package grid

// FtCounts returns a flat row-major copy of the feedthrough counters, the
// dense sibling of DensCounts; only tests read the table that way.
func (g *Grid) FtCounts() []int32 {
	out := make([]int32, g.Rows*g.Cols)
	for row := 0; row < g.Rows; row++ {
		copy(out[row*g.Cols:], g.ft.Row(row))
	}
	return out
}
