//go:build !race

package service

// raceBuild reports whether the race detector is compiled in.
const raceBuild = false
