package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"leakydnn/internal/chaos"
	"leakydnn/internal/cupti"
	"leakydnn/internal/gpu"
	"leakydnn/internal/zoo"
)

// A serialized trace must restore bit-identically: samples, metadata, health,
// re-anchor markers, and a timeline whose events point back into the trace's
// own op table.
func TestTraceSerializationRoundTrip(t *testing.T) {
	cfg := fastRun(31, 4, true)
	cfg.Chaos.Sched = chaos.SchedPlan{Resets: 1, TenantJoins: 1}
	orig, err := Collect(zoo.TinyTestedModels()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Samples, orig.Samples) {
		t.Fatal("samples changed across the round trip")
	}
	if !reflect.DeepEqual(got.Model, orig.Model) || !reflect.DeepEqual(got.Ops, orig.Ops) {
		t.Fatal("model/ops changed across the round trip")
	}
	if got.VictimWall != orig.VictimWall || got.SpyProbeLaunches != orig.SpyProbeLaunches ||
		got.SpyChannelsRejected != orig.SpyChannelsRejected {
		t.Fatal("run counters changed across the round trip")
	}
	if !reflect.DeepEqual(got.Reanchors, orig.Reanchors) {
		t.Fatalf("re-anchor markers changed: %v vs %v", got.Reanchors, orig.Reanchors)
	}
	if !reflect.DeepEqual(got.Health, orig.Health) {
		t.Fatalf("health changed across the round trip:\n%+v\n%+v", got.Health, orig.Health)
	}
	ge, oe := got.Timeline.Events(), orig.Timeline.Events()
	if len(ge) != len(oe) {
		t.Fatalf("timeline has %d events, want %d", len(ge), len(oe))
	}
	for i := range ge {
		if ge[i].Name != oe[i].Name || ge[i].Start != oe[i].Start || ge[i].End != oe[i].End ||
			ge[i].Iteration != oe[i].Iteration {
			t.Fatalf("event %d differs: %+v vs %+v", i, ge[i], oe[i])
		}
		if ge[i].Op == nil || *ge[i].Op != *oe[i].Op {
			t.Fatalf("event %d op differs", i)
		}
		// The restored pointer must index the restored trace's own op table,
		// preserving the identity Labels() and WriteTo depend on.
		if ge[i].Op != &got.Ops[ge[i].Op.Seq] {
			t.Fatalf("event %d op pointer does not point into the restored op table", i)
		}
	}
	// Labels (the alignment consumers actually use) must agree exactly.
	if !reflect.DeepEqual(stripOpPointers(got.Labels()), stripOpPointers(orig.Labels())) {
		t.Fatal("labels changed across the round trip")
	}
}

// firstBitDifference returns the index of the first sample whose times or
// counter bit patterns differ between a and b (equal lengths), or -1.
func firstBitDifference(a, b []cupti.Sample) int {
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End {
			return i
		}
		for k := range a[i].Values {
			if math.Float64bits(a[i].Values[k]) != math.Float64bits(b[i].Values[k]) {
				return i
			}
		}
	}
	return -1
}

// Sample records carry raw float64 bit patterns: NaN payloads, negative zero,
// infinities and subnormals come back bit for bit, and so do extreme times.
func TestSampleRecordsKeepRawBits(t *testing.T) {
	specials := []float64{
		math.Float64frombits(0x7ff8_0000_0000_0abc), // quiet NaN with a payload
		math.Float64frombits(0xfff0_0000_0000_0001), // negative signalling NaN
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.MaxFloat64, 1.5,
	}
	tr := &Trace{}
	for i := 0; i < 3; i++ {
		var s cupti.Sample
		s.Start, s.End = gpu.Nanos(math.MinInt64+int64(i)), gpu.Nanos(math.MaxInt64-int64(i))
		for k := range s.Values {
			s.Values[k] = specials[(i+k)%len(specials)]
		}
		tr.Samples = append(tr.Samples, s)
	}
	got, err := ReadTrace(bytes.NewReader(traceBytes(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(tr.Samples) {
		t.Fatalf("read %d samples, wrote %d", len(got.Samples), len(tr.Samples))
	}
	if i := firstBitDifference(got.Samples, tr.Samples); i >= 0 {
		t.Fatalf("sample %d changed bits: %+v vs %+v", i, got.Samples[i], tr.Samples[i])
	}
}

func stripOpPointers(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	for i := range out {
		out[i].Op = nil
	}
	return out
}

// Traces written back to back must read back as a collection, and the stream
// must be consumable incrementally.
func TestMultiTraceStreamRoundTrip(t *testing.T) {
	var traces []*Trace
	var buf bytes.Buffer
	for i, m := range zoo.TinyTestedModels()[:2] {
		tr, err := Collect(m, fastRun(int64(50+i), 3, true))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	if err := WriteTraces(&buf, traces); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(traces) {
		t.Fatalf("read %d traces, wrote %d", len(got), len(traces))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Samples, traces[i].Samples) {
			t.Fatalf("trace %d samples changed", i)
		}
		if got[i].Model.Name != traces[i].Model.Name {
			t.Fatalf("trace %d model changed", i)
		}
	}
}

// Corrupt and truncated streams must fail with a story, never a panic or a
// silently partial trace.
func TestSerializationRejectsDamage(t *testing.T) {
	tr, err := Collect(zoo.TinyTestedModels()[0], fastRun(60, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Fatal("garbage accepted as a trace")
	}
	for _, frac := range []float64{0.3, 0.7, 0.95} {
		cut := int(float64(len(full)) * frac)
		if _, err := ReadTrace(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
	// An empty stream is a legal empty collection, but not a legal trace.
	if got, err := ReadTraces(bytes.NewReader(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty stream: got %d traces, err %v", len(got), err)
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted as a single trace")
	}
}
