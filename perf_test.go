// Performance regression gates: allocation ceilings on the collection hot
// paths and a wall-clock scaling gate on the parallel fan-out. These pin the
// wins DESIGN.md §11 describes — the per-worker collection arenas and the
// IterOp tag slab — so a future change that silently reintroduces per-kernel
// boxing or per-run engine churn fails CI instead of fading into GC noise.
package leakydnn

import (
	"runtime"
	"testing"
	"time"

	"leakydnn/internal/eval"
	"leakydnn/internal/fleet"
	"leakydnn/internal/trace"
)

// maxCollectAllocs bounds one arena-backed trace collection. Measured ~150
// after the tag-slab and arena work (seed-era collections ran thousands);
// the ceiling leaves slack for toolchain drift while still catching any
// per-sample or per-kernel allocation sneaking back in.
const maxCollectAllocs = 500

// maxFleetAllocs bounds one full 8-device collect-only fleet run, arenas
// included. Measured ~930 (the seed ran 81k); the ISSUE-10 acceptance floor
// is 10k, and the ceiling sits well under it with headroom over the
// measurement.
const maxFleetAllocs = 5000

// maxExtractAllocs bounds one extraction of the last tiny tested trace.
// Inference draws its forward state from a per-network pool, so
// steady-state extraction allocates little beyond its result slices:
// measured ~460, against ~3.3k for the per-sequence inference the batched
// engine replaced and ~12k for the batched forward without its pool.
const maxExtractAllocs = 1000

// TestCollectAllocsRegression pins the steady-state allocation count of one
// arena-backed trace collection.
func TestCollectAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	sc := eval.Tiny()
	arenas := trace.NewArenaPool()
	model := sc.Tested[len(sc.Tested)-1]
	collect := func(seed int64) {
		rcfg := sc.RunConfig(seed, true)
		rcfg.Arenas = arenas
		tr, err := trace.Collect(model, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Samples) == 0 {
			t.Fatal("no samples")
		}
	}
	collect(0) // warm the arena pool: the first run funds the scratch buffers
	avg := testing.AllocsPerRun(5, func() { collect(1) })
	if avg > maxCollectAllocs {
		t.Errorf("trace.Collect allocates %.0f objects/run, ceiling %d — a hot-path allocation regressed",
			avg, maxCollectAllocs)
	}
}

// TestFleetCollectAllocsRegression pins the whole fleet hot path: 8 devices'
// co-runs, supervisor, planner and hashing, under one run's arena pool.
func TestFleetCollectAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	cfg := fleet.Config{Base: eval.Tiny(), Devices: 8, CollectOnly: true}
	run := func() {
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalSchedSlices == 0 {
			t.Fatal("fleet simulated nothing")
		}
	}
	run()
	avg := testing.AllocsPerRun(3, run)
	if avg > maxFleetAllocs {
		t.Errorf("fleet.Run allocates %.0f objects/run, ceiling %d — a hot-path allocation regressed",
			avg, maxFleetAllocs)
	}
}

// TestExtractAllocsRegression pins the steady-state allocation count of one
// extraction, the serving hot path: nearly all of it is LSTM inference.
func TestExtractAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	w := sharedWorkbench(t)
	tr := w.Tested[len(w.Tested)-1]
	extract := func() {
		if _, err := w.Models.ExtractTrace(tr); err != nil {
			t.Fatal(err)
		}
	}
	extract() // warm the inference pools and weight caches
	avg := testing.AllocsPerRun(5, extract)
	t.Logf("Models.ExtractTrace: %.0f allocs/run", avg)
	if avg > maxExtractAllocs {
		t.Errorf("Models.ExtractTrace allocates %.0f objects/run, ceiling %d — inference stopped pooling its state",
			avg, maxExtractAllocs)
	}
}

// TestCollectWorkersScalingGate is the CI scaling gate: the 4-worker profiled
// fan-out must not run slower than the serial one (the Workers4 > Workers1
// inversion the pre-arena pipeline exhibited, where GC work induced by ~81k
// allocations per fleet run cost the parallel arms more than their
// parallelism recovered). Wall-clock comparisons are noisy, so each arm takes
// the best of three and the gate allows 5%; boxes without the cores to show a
// speedup skip rather than flake.
func TestCollectWorkersScalingGate(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	measure := func(workers int) time.Duration {
		sc := eval.Tiny()
		sc.Workers = workers
		best := time.Duration(0)
		for r := 0; r < 3; r++ {
			start := time.Now()
			traces, err := sc.CollectTraces(sc.Profiled, eval.StreamProfiled)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if len(traces) != len(sc.Profiled) {
				t.Fatalf("collected %d traces, want %d", len(traces), len(sc.Profiled))
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		return best
	}
	measure(1) // warm caches and the scheduler before timing either arm
	t1 := measure(1)
	t4 := measure(4)
	if float64(t4) > 1.05*float64(t1) {
		t.Errorf("Workers4 best-of-3 %.1fms vs Workers1 %.1fms (> 1.05x): parallel fan-out inverted",
			float64(t4)/1e6, float64(t1)/1e6)
	}
}
