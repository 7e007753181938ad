//go:build !race

package parroute_test

// raceBuild reports whether the race detector is compiled in.
const raceBuild = false
