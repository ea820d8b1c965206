package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"leakydnn/internal/cupti"
	"leakydnn/internal/zoo"
)

// readAllocBytes is the fewest heap bytes one Read of data allocated over a
// few tries (other goroutines' allocations only ever add to a try).
func readAllocBytes(data []byte) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&before)
		NewReader(bytes.NewReader(data)).Read() //nolint:errcheck // only the cost is measured
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// The reader's memory price is bounded by its input: a real collected trace
// costs at most twice its wire size plus 64 KB, and neither a header that
// promises samples and events nor a sample chunk's length prefix buys
// capacity for records the stream does not carry.
func TestReadTraceAllocBound(t *testing.T) {
	for i, m := range zoo.TinyTestedModels() {
		tr, err := Collect(m, fastRun(71, 3, true))
		if err != nil {
			t.Fatal(err)
		}
		raw := traceBytes(t, tr)
		if got, limit := readAllocBytes(raw), uint64(2*len(raw)+64<<10); got > limit {
			t.Errorf("%s (%d samples, %d bytes): Read allocated %d bytes, bound %d",
				m.Name, len(tr.Samples), len(raw), got, limit)
		} else {
			t.Logf("model %d %s: %d samples, %d bytes on the wire, %d bytes allocated", i, m.Name, len(tr.Samples), len(raw), got)
		}
	}

	claim := hostileStream(t, traceHeader{CounterWidth: int(cupti.NumEvents), SampleCount: 1 << 16, EventCount: 1 << 16})
	if _, err := ReadTrace(bytes.NewReader(claim)); err == nil {
		t.Fatal("a header with no chunks behind it was accepted")
	}
	if got := readAllocBytes(claim); got >= 64<<10 {
		t.Errorf("a %d-byte stream claiming 65,536 samples and events allocated %d bytes, want < 64 KB", len(claim), got)
	} else {
		t.Logf("a %d-byte stream claiming 65,536 samples and events: %d bytes allocated", len(claim), got)
	}

	// A sample chunk declaring ~64 MB of records (the default chunk guard)
	// behind a header promising 1<<30 samples, with no payload after it.
	records := (maxChunkBytes - 1) / sampleRecordBytes
	prefix := append(binary.AppendUvarint(nil, uint64(1+records*sampleRecordBytes)), byte(chunkSamples))
	empty := hostileStream(t, traceHeader{CounterWidth: int(cupti.NumEvents), SampleCount: 1 << 30}, prefix)
	if _, err := ReadTrace(bytes.NewReader(empty)); err == nil {
		t.Fatal("a sample chunk with no payload behind its prefix was accepted")
	}
	if got := readAllocBytes(empty); got >= 64<<10 {
		t.Errorf("a %d-byte stream declaring a %d-record sample chunk allocated %d bytes, want < 64 KB", len(empty), records, got)
	} else {
		t.Logf("a %d-byte stream declaring a %d-record sample chunk: %d bytes allocated", len(empty), records, got)
	}
}

// BenchmarkReadTrace times the trace.read layer on a tiny VGG-class trace,
// the upload mosconsd decodes most.
func BenchmarkReadTrace(b *testing.B) {
	tr, err := Collect(zoo.TinyTestedModels()[2], fastRun(71, 3, true))
	if err != nil {
		b.Fatal(err)
	}
	raw := traceBytes(b, tr)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTrace(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Samples))*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}
