package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		v = append(v, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
	if v[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileSupport(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {1200, 99, true},
		{100, 90, true}, {99, 90, false},
		{20, 50, true}, {19, 50, false},
		{0, 50, false},
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, p%g) = %v (beyond %d), want %v", c.n, c.p, got, beyond(c.n, c.p), c.want)
		}
	}
	for p, want := range map[float64]int{99: 1000, 90: 100, 50: 20} {
		if got := samplesFor(p); got != want {
			t.Errorf("samplesFor(p%g) = %d, want %d", p, got, want)
		}
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.4, 9.9, 2.2, 7.5, 5.0, 1.1}, 1.1, 3.1, 7.5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.v); !near(m, c.q2) {
			t.Errorf("median(%v) = %g, want %g", c.v, m, c.q2)
		}
	}
	if q1, q2, q3 := quartiles([]float64{4}); q1 != 4 || q2 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %g %g %g, want 4 4 4", q1, q2, q3)
	}
}

// Every failed exchange counts against error_frac, whatever its cause.
func TestErrorAccounting(t *testing.T) {
	transport := errors.New("connection reset")
	var tl tally
	for _, c := range []struct {
		err     error
		status  int
		matches bool
		want    outcome
	}{
		{nil, 200, true, outOK},
		{nil, 200, true, outOK},
		{nil, 429, false, outShed},
		{transport, 0, false, outTransport},
		{transport, 200, true, outTransport}, // a broken read is not an answer
		{nil, 200, false, outMismatch},
		{nil, 503, false, outRejected},
	} {
		got := classifyResponse(c.err, c.status, c.matches)
		if got != c.want {
			t.Errorf("classify(%v, %d, %v) = %s, want %s", c.err, c.status, c.matches, outcomeNames[got], outcomeNames[c.want])
		}
		tl.add(got)
	}
	tl.add(outFailed) // a quarantined fleet device
	if tl.attempted() != 8 || tl.failed() != 6 {
		t.Fatalf("attempted %d failed %d, want 8 and 6", tl.attempted(), tl.failed())
	}
	if got := tl.errorFrac(); !near(got, 6.0/8) {
		t.Errorf("errorFrac = %g, want 0.75", got)
	}
	var none tally
	if none.errorFrac() != 0 {
		t.Error("errorFrac of no attempts is not 0")
	}
}

// Each window of one pool's length is a permutation, so every phase sends
// the pool's trace mix; the same seed draws the same order.
func TestDrawOrderKeepsMix(t *testing.T) {
	a := drawOrder(rand.New(rand.NewSource(4)), 5, 23)
	b := drawOrder(rand.New(rand.NewSource(4)), 5, 23)
	if len(a) != 23 {
		t.Fatalf("len %d, want 23", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed drew different orders")
		}
	}
	for w := 0; w+5 <= len(a); w += 5 {
		win := append([]int(nil), a[w:w+5]...)
		sort.Ints(win)
		for i, v := range win {
			if v != i {
				t.Fatalf("window %v is not a permutation of the pool", a[w:w+5])
			}
		}
	}
}

// BENCHMARK.json and the metrics the program prints must agree.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
