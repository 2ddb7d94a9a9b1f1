package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 when xs is empty.
func quantile[T ~int64 | ~float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	c := slices.Clone(xs)
	slices.Sort(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(c)-1)
	frac := pos - float64(lo)
	return c[lo] + T(frac*float64(c[hi]-c[lo]))
}

// samples is a list of latencies from one phase of a run.
type samples []time.Duration

func (s samples) quantile(q float64) time.Duration { return quantile(s, q) }
func (s samples) median() time.Duration            { return quantile(s, 0.5) }

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// ms and us convert a duration to fractional milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
