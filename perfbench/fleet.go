package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"leakydnn/internal/attack"
	"leakydnn/internal/eval"
	"leakydnn/internal/fleet"
	"leakydnn/internal/par"
	"leakydnn/internal/trace"
)

const (
	// campaignDevices spreads six devices over each of the campaign's four
	// model groups (2 classes x 2 mixes). Class-shared training of the four
	// groups is most of the campaign's wall time.
	campaignDevices = 24
	// collectDevices covers all 4 classes x 3 mixes, 20 devices a group.
	collectDevices = 240
	// The untraced run times one campaign per campaignSeconds or
	// collectSeconds of its budget (about 2.5-3 s and 0.9 s on 2 CPUs), short
	// enough for the kernel blocks around each to track the host's speed
	// (see calib.go). Each campaign runs at its own seed derived from the
	// workload seed: what training costs and allocates depends on the
	// seed's profiled data, so one seed's model groups alone would make the
	// run's figures a draw of the seed. fleet-campaign runs its four model
	// groups one campaign each, in turn, starting at a group the seed
	// chooses; the traced run times one campaign of all four.
	campaignSeconds, collectSeconds = 2.5, 1.0
	// Each set-up warms the process with a collect-only campaign of
	// setupDevices devices at the tiny scale's own seed: the same work for
	// every workload seed, and long enough (~0.2 s on 2 CPUs) that scheduling
	// noise does not set its time.
	setupDevices   = 64
	fleetSetupReps = 7
	// effMin and effMax bound fleet attribution: the traced re-drive's layer
	// time over (untraced campaign wall x workers). Above effMax the spans
	// timed more work than the campaign had CPU time for, beyond what the
	// re-drive's own scheduling explains; below effMin the campaign spent
	// more than half its CPU time outside the traced layers.
	effMin, effMax = 0.5, 1.20
)

func campaignConfig(o options) fleet.Config {
	base := eval.Tiny()
	base.Workers = o.workers
	base.Seed = o.seed
	return fleet.Config{
		Base:    base,
		Devices: campaignDevices,
		Classes: fleet.DefaultClasses()[:2],
		Mixes:   fleet.DefaultMixes()[:2],
	}
}

func collectConfig(o options) fleet.Config {
	base := eval.Tiny()
	base.Workers = o.workers
	base.Seed = o.seed
	return fleet.Config{Base: base, Devices: collectDevices, CollectOnly: true}
}

func runFleetCampaign(ctx context.Context, o options) (*report, error) {
	full := campaignConfig(o)
	if o.trace {
		return runFleet(o, full, []fleet.Config{full})
	}
	var units []fleet.Config
	groups := len(full.Classes) * len(full.Mixes)
	// Whole rounds of the groups, so every run times each as often.
	rounds := max(1, campaignCount(o, campaignSeconds)/groups)
	for k := 0; k < rounds*groups; k++ {
		g := int((o.seed%int64(groups) + int64(groups) + int64(k)) % int64(groups))
		c := full
		c.Classes = full.Classes[g/len(full.Mixes) : g/len(full.Mixes)+1]
		c.Mixes = full.Mixes[g%len(full.Mixes) : g%len(full.Mixes)+1]
		c.Devices = full.Devices / groups
		units = append(units, withCampaignSeed(c, k))
	}
	return runFleet(o, full, units)
}

func runFleetCollect(ctx context.Context, o options) (*report, error) {
	cfg := collectConfig(o)
	if o.trace {
		return runFleet(o, cfg, []fleet.Config{cfg})
	}
	var units []fleet.Config
	for k := 0; k < campaignCount(o, collectSeconds); k++ {
		units = append(units, withCampaignSeed(cfg, k))
	}
	return runFleet(o, cfg, units)
}

// campaignCount is how many campaigns of about perCampaign seconds the
// untraced run times.
func campaignCount(o options, perCampaign float64) int {
	return max(1, int(float64(o.seconds)/perCampaign))
}

// withCampaignSeed gives the k-th campaign of a run its seed: the workload
// seed for the first, one derived from it and k for the others.
func withCampaignSeed(c fleet.Config, k int) fleet.Config {
	if k > 0 {
		c.Base.Seed = eval.DeriveSeed(c.Base.Seed, eval.StreamFleetDevice, int64(k))
	}
	return c
}

// fleetSetUp plans the campaign and warms the process with a collect-only
// campaign over the same groups at a fixed seed.
func fleetSetUp(cfg fleet.Config) error {
	if _, err := fleet.Plan(cfg); err != nil {
		return err
	}
	warm := cfg
	warm.Base.Seed = eval.Tiny().Seed
	warm.CollectOnly = true
	warm.Devices = setupDevices
	_, err := fleet.Run(warm)
	return err
}

// runFleet sets up on setupCfg, times the campaigns units and checks the
// first one's answers against a re-drive.
func runFleet(o options, setupCfg fleet.Config, units []fleet.Config) (*report, error) {
	rep := newReport()
	var setups []float64
	h := newHostClock(o.workers)
	for r := 0; r < fleetSetupReps; r++ {
		start := time.Now()
		if err := fleetSetUp(setupCfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds()*h.scale())
	}
	rep.metrics["setup_s"] = median(setups)

	first, raw, scaled, allocs, err := measureCampaigns(rep, units, h)
	if err != nil {
		return nil, err
	}
	cfg := units[0]
	devices := 0
	for _, u := range units {
		devices += u.Devices
	}
	// Throughput is over all campaigns' nominal-host time. The latency, a
	// campaign's nominal-host wall time, and the allocation per device are
	// per-configuration figures (see byConfig).
	rep.metrics["ops_per_s"] = float64(devices) / sum(scaled)
	rep.metrics["latency_p50_ms"] = byConfig(units, scaled) * 1000
	perDevice := make([]float64, len(units))
	for k, u := range units {
		perDevice[k] = allocs[k] / float64(u.Devices)
	}
	rep.metrics["alloc_mb_per_op"] = byConfig(units, perDevice)
	wall := median(raw)
	rep.note("%s: %d campaigns, %d devices; on this host %.2f devices/s; %s; %s; %s; %s", o.workload, len(units), devices,
		float64(devices)/sum(raw), summary("campaign wall s", raw), summary("set-up s", setups),
		summary("kernel block ms", h.blocksMS), summary("host scale factor", h.factors))

	// Outside the timed window, the first campaign's answers are checked
	// against a re-drive: every device in the traced run, the devices of one
	// seed-chosen (class, mix) group otherwise.
	specs, err := fleet.Plan(cfg)
	if err != nil {
		return nil, err
	}
	idx := checkedDevices(o, specs)
	var t *tracer
	if o.trace {
		t = newTracer()
	}
	start := time.Now()
	seen, err := redrive(o, cfg, specs, idx, t)
	if err != nil {
		return nil, fmt.Errorf("re-drive: %w", err)
	}
	redriveWall := time.Since(start).Seconds()
	tallyDevices(rep, first, 0, compareRedrive(rep, cfg, first, idx, seen))
	rep.metrics["ok_frac"] = 1 - rep.tally.errorFrac()
	rep.note("answers of %d of the first campaign's %d devices checked against a re-drive", len(idx), cfg.Devices)
	if !o.trace {
		return rep, nil
	}

	m := rep.metrics
	m["error_frac"] = rep.tally.errorFrac()
	m["devices_per_s"] = float64(devices) / sum(raw)
	m["fleet.modelsets_trained"] = float64(first.ModelSetsTrained)
	m["fleet.modelsets_shared"] = float64(first.ModelSetsReferenced)
	m["fleet.retried"] = float64(first.Retried)
	m["fleet.quarantined"] = float64(first.Quarantined)
	m["gpu.sched_slices"] = float64(first.TotalSchedSlices)
	var letter, layer, hp []float64
	fallback := 0
	for _, d := range first.Devices {
		letter, layer, hp = append(letter, d.LetterAcc), append(layer, d.LayerAcc), append(hp, d.HPAcc)
		if d.Coverage.UsedFallback {
			fallback++
		}
	}
	if !cfg.CollectOnly {
		m["letter_acc"], m["layer_acc"], m["hp_acc"] = mean(letter), mean(layer), mean(hp)
		m["attack.fallback_frac"] = float64(fallback) / float64(len(first.Devices))
	}

	var samples, slices float64
	for _, s := range seen {
		samples += float64(s.samples)
		slices += float64(s.slices)
	}
	collect, _ := t.total("trace.collect")
	m["trace.collect_ms"] = t.meanOf("trace.collect", time.Millisecond)
	m["trace.samples"] = samples
	m["attack.samples_mean"] = samples / float64(len(seen))
	m["gpu.slices_per_s"] = slices / collect.Seconds()
	if !cfg.CollectOnly {
		m["eval.collect_s"] = t.meanOf("eval.collect", time.Second)
		m["attack.train_s"] = t.meanOf("attack.train", time.Second)
		m["attack.extract_ms"] = t.meanOf("attack.extract", time.Millisecond)
	}
	eff := t.leafTotal().Seconds() / (wall * float64(o.workers))
	m["fleet.parallel_efficiency"] = eff
	if eff < effMin || eff > effMax {
		rep.problem("fleet attribution: traced layer time is %.3f of campaign wall x %d workers, outside [%.2f, %.2f]",
			eff, o.workers, effMin, effMax)
	}
	m["bench.trace_overhead_ms"] = (redriveWall - wall) * 1000
	rep.note("re-drive wall %.3fs vs campaign %.3fs; parallel efficiency %.3f", redriveWall, wall, eff)
	return rep, dumpSpans(rep, t, o)
}

// measureCampaigns runs every campaign of units, each between kernel blocks.
// It tallies every campaign's devices but the first's, whose answers the
// caller checks first, and returns the first campaign's result and each
// campaign's wall time, raw and on the nominal host, and heap allocation in
// MB.
func measureCampaigns(rep *report, units []fleet.Config, h *hostClock) (first *fleet.Result, raw, scaled, allocs []float64, err error) {
	h.restart()
	for k, c := range units {
		allocated := allocatedMB()
		start := time.Now()
		res, err := fleet.Run(c)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		wall := time.Since(start).Seconds()
		allocs = append(allocs, allocatedMB()-allocated)
		raw, scaled = append(raw, wall), append(scaled, wall*h.scale())
		if k == 0 {
			first = res
		} else {
			tallyDevices(rep, res, k, nil)
		}
	}
	return first, raw, scaled, allocs, nil
}

// byConfig summarises one value per campaign of units: per (classes, mixes)
// configuration the median over its campaigns, then the mean over
// configurations. A duo-mix model group takes about a fifth longer and
// allocates about three times what a solo one does, and now and then a
// seed's data takes a cheaper path through training; grouping keeps the mix
// of configurations fixed, and the median keeps one such campaign from
// setting the run's figure.
func byConfig(units []fleet.Config, values []float64) float64 {
	groups := map[string][]float64{}
	var order []string
	for k, u := range units {
		key := fmt.Sprint(u.Classes, u.Mixes)
		if groups[key] == nil {
			order = append(order, key)
		}
		groups[key] = append(groups[key], values[k])
	}
	var medians []float64
	for _, key := range order {
		medians = append(medians, median(groups[key]))
	}
	return mean(medians)
}

// tallyDevices counts each device of campaign k: quarantined or with an
// extraction error it failed; listed in mismatched, its answer differed
// from the re-drive's.
func tallyDevices(rep *report, res *fleet.Result, k int, mismatched map[int]bool) {
	for i, d := range res.Devices {
		switch {
		case d.Quarantined || d.ExtractErr != "":
			rep.tally.add(outFailed)
			rep.problem("%s (campaign %d): quarantined %v, extraction error %q", d.Spec.Name, k, d.Quarantined, d.ExtractErr)
		case mismatched[i]:
			rep.tally.add(outMismatch)
		default:
			rep.tally.add(outOK)
		}
	}
}

// groupKey is a device's model group: its (class, mix).
func groupKey(s fleet.DeviceSpec) [2]string { return [2]string{s.Class, s.Mix} }

// checkedDevices is the planned devices the re-drive replays: all of them
// in the traced run, otherwise those of one group chosen by the seed.
func checkedDevices(o options, specs []fleet.DeviceSpec) []int {
	var idx []int
	if o.trace {
		for i := range specs {
			idx = append(idx, i)
		}
		return idx
	}
	var order [][2]string
	seenGroup := map[[2]string]bool{}
	for _, s := range specs {
		if k := groupKey(s); !seenGroup[k] {
			seenGroup[k] = true
			order = append(order, k)
		}
	}
	n := int64(len(order))
	chosen := order[(o.seed%n+n)%n]
	for i, s := range specs {
		if groupKey(s) == chosen {
			idx = append(idx, i)
		}
	}
	return idx
}

// compareRedrive checks each re-driven device against the campaign's result
// and returns the devices whose slices, samples, model set or fingerprint
// differ. Equal fingerprints mean equal recoveries, so equal accuracies.
func compareRedrive(rep *report, cfg fleet.Config, first *fleet.Result, idx []int, seen []redrived) map[int]bool {
	mismatched := map[int]bool{}
	for j, i := range idx {
		s, d := seen[j], first.Devices[i]
		wantSamples := int(math.Round(d.SamplesPerIter * float64(cfg.Base.Iterations)))
		if s.slices != d.SchedSlices || s.samples != wantSamples ||
			s.fingerprint != d.Fingerprint || s.modelRep != d.ModelRep {
			rep.problem("%s: re-drive gave slices %d samples %d model set %d, campaign %d / %d / %d (fingerprints equal: %v)",
				d.Spec.Name, s.slices, s.samples, s.modelRep, d.SchedSlices, wantSamples, d.ModelRep, s.fingerprint == d.Fingerprint)
			mismatched[i] = true
		}
	}
	return mismatched
}

// victimRunConfig is the device's victim co-run as the fleet configures it.
func victimRunConfig(spec fleet.DeviceSpec, arenas *trace.ArenaPool) trace.RunConfig {
	sc := spec.Scale
	rcfg := sc.RunConfig(sc.StreamSeed(eval.StreamTested, 0), spec.Slowdown != 0)
	rcfg.Arenas = arenas
	if spec.Slowdown > 0 {
		rcfg.Spy.SlowdownChannels = spec.Slowdown
	}
	for j := 0; j < spec.Tenants; j++ {
		rcfg.BackgroundTenants = append(rcfg.BackgroundTenants, sc.Profiled[j%len(sc.Profiled)])
	}
	return rcfg
}

// modelGroup is one (class, mix) group's model set in the re-drive, trained
// once from its lowest-index member's spec.
type modelGroup struct {
	rep    int
	once   sync.Once
	models *attack.Models
	err    error
}

// redrived is what the re-drive saw for one device.
type redrived struct {
	samples, slices int
	fingerprint     string
	modelRep        int
}

// redrive replays the planned devices idx through the public calls the
// fleet makes, on the same number of workers: per device the victim co-run
// (trace.Collect) and, unless collect-only, the group's model set
// (Scale.CollectTraces of the profiled set + attack.TrainModels, once per
// group, from the group's lowest-index member as the fleet does) and the
// extraction (Models.ExtractTrace). With a tracer each call runs in a span.
func redrive(o options, cfg fleet.Config, specs []fleet.DeviceSpec, idx []int, t *tracer) ([]redrived, error) {
	groups := map[[2]string]*modelGroup{}
	for _, s := range specs {
		if k := groupKey(s); groups[k] == nil {
			groups[k] = &modelGroup{rep: s.Index}
		}
	}
	used := map[[2]string]bool{}
	for _, i := range idx {
		used[groupKey(specs[i])] = true
	}
	// Each group in use trains on its share of the workers.
	trainWorkers := max(1, o.workers/len(used))
	arenas := trace.NewArenaPool()
	return par.Map(o.workers, len(idx), func(j int) (redrived, error) {
		spec := specs[idx[j]]
		root, rootStart := t.reserve()
		defer t.finish(root, spec.Name, "device", 0, rootStart)
		var (
			tr  *trace.Trace
			err error
		)
		t.timed(spec.Name, "trace.collect", root, func() { tr, err = trace.Collect(spec.Victim, victimRunConfig(spec, arenas)) })
		if err != nil {
			return redrived{}, err
		}
		out := redrived{samples: len(tr.Samples), slices: tr.SchedSlices, modelRep: -1}
		if cfg.CollectOnly {
			return out, nil
		}
		g := groups[groupKey(spec)]
		g.once.Do(func() {
			sc := specs[g.rep].Scale
			sc.Workers = trainWorkers
			var profiled []*trace.Trace
			t.timed(spec.Name, "eval.collect", root, func() { profiled, g.err = sc.CollectTraces(sc.Profiled, eval.StreamProfiled) })
			if g.err == nil {
				t.timed(spec.Name, "attack.train", root, func() { g.models, g.err = attack.TrainModels(profiled, sc.AttackConfig()) })
			}
		})
		if g.err != nil {
			return redrived{}, g.err
		}
		var rec *attack.Recovery
		t.timed(spec.Name, "attack.extract", root, func() { rec, err = g.models.ExtractTrace(tr) })
		if err != nil {
			return redrived{}, err
		}
		out.fingerprint, out.modelRep = rec.Fingerprint(), g.rep
		return out, nil
	})
}
