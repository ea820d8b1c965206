package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer samples beyond it is decided by a handful of outliers
// and does not repeat between runs.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values: the smallest sample with at least p% of the samples at or below it.
// values need not be sorted; it returns 0 for an empty slice.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// supports reports whether n samples carry the p-th percentile: at least
// minBeyond samples lie above it.
func supports(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// samplesFor is the smallest sample count that supports the p-th percentile.
func samplesFor(p float64) int {
	n := 1
	for !supports(n, p) {
		n++
	}
	return n
}

// median is the middle value (mean of the two middle ones for even n).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first, second and third quartile with the same
// exclusive interpolation as Python's statistics.quantiles(values, n=4), the
// method the benchmark's spread is judged by. One value is its own
// quartiles; no values give zeros.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sorted(values)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// summary states a repeated measurement's sample count, median and
// quartiles, so every result shows its own within-run spread.
func summary(name string, values []float64) string {
	q1, q2, q3 := quartiles(values)
	return fmt.Sprintf("%s: n=%d median %.4g, quartiles %.4g-%.4g", name, len(values), q2, q1, q3)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return sum(values) / float64(len(values))
}

func sum(values []float64) float64 {
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome classifies one attempted operation for the error accounting.
type outcome int

const (
	outOK        outcome = iota
	outShed              // refused by admission (429)
	outRejected          // any other non-200 status
	outTransport         // no response: dial, write or read failed
	outMismatch          // answered, but not with the offline pipeline's answer
	outFailed            // a fleet device quarantined or with an extraction error
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "shed", "rejected", "transport", "mismatch", "failed"}

// classifyResponse maps one HTTP exchange to its outcome: a transport error
// wins, then the status, then the answer's agreement with the reference.
func classifyResponse(err error, status int, matches bool) outcome {
	switch {
	case err != nil:
		return outTransport
	case status == 429:
		return outShed
	case status != 200:
		return outRejected
	case !matches:
		return outMismatch
	}
	return outOK
}

// tally counts outcomes. Every outcome but outOK is a failed operation.
type tally [numOutcomes]int

func (t *tally) add(o outcome) { t[o]++ }

func (t *tally) attempted() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

func (t *tally) failed() int { return t.attempted() - t[outOK] }

// errorFrac is failed over attempted (0 when nothing was attempted).
func (t *tally) errorFrac() float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted())
}
