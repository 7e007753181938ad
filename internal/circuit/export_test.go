package circuit

// CheckRoom is Validate's closing int32 check, for the reference validator
// of the external tests.
func (c *Circuit) CheckRoom() error { return c.checkRoom() }

// SetRowCells, SetCellPins and SetNetPins replace one list of c with ids,
// as the reference tests' corruptions do.
func SetRowCells(c *Circuit, r int, ids []int32) {
	c.rowCells = setList(c.rowCells, len(c.Rows), r, ids)
}
func SetCellPins(c *Circuit, id int, ids []int32) {
	c.cellPins = setList(c.cellPins, len(c.Cells), id, ids)
}
func SetNetPins(c *Circuit, n int, ids []int32) { c.netPins = setList(c.netPins, len(c.Nets), n, ids) }

func setList(l csr, n, i int, ids []int32) csr {
	out := csr{off: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		list := l.at(j)
		if j == i {
			list = ids
		}
		out.v = append(out.v, list...)
		out.off[j+1] = int32(len(out.v))
	}
	return out
}
