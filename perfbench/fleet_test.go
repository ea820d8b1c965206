package main

import (
	"testing"

	"leakydnn/internal/fleet"
)

// The untraced run checks every device of exactly one (class, mix) group,
// chosen by the seed; the traced run checks every device.
func TestCheckedDevices(t *testing.T) {
	o := options{workers: 2}
	specs, err := fleet.Plan(collectConfig(o))
	if err != nil {
		t.Fatal(err)
	}
	chosen := map[[2]string]bool{}
	for _, seed := range []int64{-7, 0, 1, 2, 3, 1000003} {
		o.seed = seed
		idx := checkedDevices(o, specs)
		if len(idx) != collectDevices/12 {
			t.Fatalf("seed %d: %d devices checked, want one group of %d", seed, len(idx), collectDevices/12)
		}
		k := groupKey(specs[idx[0]])
		for _, i := range idx {
			if groupKey(specs[i]) != k {
				t.Fatalf("seed %d: checked devices span groups %v and %v", seed, k, groupKey(specs[i]))
			}
		}
		chosen[k] = true
	}
	if len(chosen) < 2 {
		t.Error("every seed checked the same group")
	}
	o.trace = true
	if got := len(checkedDevices(o, specs)); got != len(specs) {
		t.Errorf("traced run checks %d of %d devices", got, len(specs))
	}
}

// A failed device counts as failed even when its answer also mismatched; a
// mismatch alone counts as a mismatch.
func TestTallyDevices(t *testing.T) {
	res := &fleet.Result{Devices: []fleet.DeviceResult{
		{}, {Quarantined: true}, {ExtractErr: "damaged"}, {}, {},
	}}
	rep := newReport()
	tallyDevices(rep, res, 0, map[int]bool{2: true, 3: true})
	if rep.tally[outOK] != 2 || rep.tally[outFailed] != 2 || rep.tally[outMismatch] != 1 {
		t.Errorf("tally %v, want 2 ok, 2 failed, 1 mismatch", rep.tally)
	}
	if got := rep.tally.errorFrac(); got != 3.0/5 {
		t.Errorf("error_frac %g, want 0.6", got)
	}
	if len(rep.problems) != 2 {
		t.Errorf("%d problems reported, want 2", len(rep.problems))
	}
}

// byConfig takes the median within each (classes, mixes) configuration and
// the mean across them, so one outlying campaign of a group does not move it
// and the groups count equally whatever their order.
func TestByConfig(t *testing.T) {
	classes, mixes := fleet.DefaultClasses(), fleet.DefaultMixes()
	solo := fleet.Config{Classes: classes[:1], Mixes: mixes[:1]}
	duo := fleet.Config{Classes: classes[:1], Mixes: mixes[1:2]}
	units := []fleet.Config{solo, duo, solo, duo, solo, duo}
	got := byConfig(units, []float64{1, 10, 2, 30, 1, 11})
	if want := (1.0 + 11) / 2; !near(got, want) {
		t.Errorf("byConfig = %g, want %g", got, want)
	}
	if got := byConfig(units[:1], []float64{4}); got != 4 {
		t.Errorf("one campaign: byConfig = %g, want 4", got)
	}
}
