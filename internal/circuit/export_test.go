package circuit

// CheckRoom is Validate's closing int32 check, for the reference validator
// of the external tests.
func (c *Circuit) CheckRoom() error { return c.checkRoom() }
