// Package badallow exercises directive validation: a //lint:allow missing
// its reason must be reported as malformed and must not suppress the panic
// diagnostic, and a directive that trails code covers its own line only.
package badallow

// Explode should still be flagged: its directive is incomplete.
func Explode() {
	panic("badallow: boom") //lint:allow panic-in-library
}

// Twice panics on two consecutive lines. The first is excused; the
// directive shares its line with code, so it does not reach the second.
func Twice(n int) {
	if n > 0 {
		panic("badallow: one") //lint:allow panic-in-library fixture: excuses this line only
		panic("badallow: two")
	}
	//lint:allow panic-in-library fixture: alone on its line, covers the line below
	panic("badallow: three")
}
