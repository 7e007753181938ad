package main

import "time"

// now is the benchmark's only wall-clock read: every timing in this
// package goes through it (and through msSince), so the lint gate's
// nondeterminism rule needs exactly one exception for the whole driver.
func now() time.Time {
	return time.Now() //lint:allow nondeterminism the benchmark measures wall time from outside the program; nothing read here reaches a routing decision
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return ms(now().Sub(t)) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
