package main

import (
	"testing"
	"time"
)

// A segment's scale factor is the nominal block time over the mean of the
// blocks before and after it, and each block opens the next segment.
func TestHostClockScale(t *testing.T) {
	h := newHostClock(2)
	f1 := h.scale()
	f2 := h.scale()
	b := h.blocksMS
	if len(b) != 3 || len(h.factors) != 2 {
		t.Fatalf("%d blocks and %d factors, want 3 and 2", len(b), len(h.factors))
	}
	nominal := ms(calibNominal)
	if want := 2 * nominal / (b[0] + b[1]); !near(f1, want) {
		t.Errorf("first factor %g, want %g", f1, want)
	}
	if want := 2 * nominal / (b[1] + b[2]); !near(f2, want) {
		t.Errorf("second factor %g, want %g", f2, want)
	}
	if d := time.Duration(b[0] * float64(time.Millisecond)); d <= 0 || d > 10*time.Second {
		t.Errorf("kernel block took %v", d)
	}
}
