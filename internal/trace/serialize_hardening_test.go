package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"leakydnn/internal/cupti"
	"leakydnn/internal/zoo"
)

// smallTrace builds a cheap synthetic trace for wire-format tests that do not
// need a real co-run.
func smallTrace(samples int) *Trace {
	t := &Trace{}
	for i := 0; i < samples; i++ {
		t.Samples = append(t.Samples, cupti.Sample{})
	}
	return t
}

func traceBytes(tb testing.TB, tr *Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rawChunk frames one chunk of the given kind around payload.
func rawChunk(tb testing.TB, kind chunkKind, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeChunk(&buf, kind, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hostileStream hand-builds a trace stream: the magic, a header chunk for h,
// then the given raw bytes.
func hostileStream(tb testing.TB, h traceHeader, rest ...[]byte) []byte {
	tb.Helper()
	hb, err := encodeHeader(&h)
	if err != nil {
		tb.Fatal(err)
	}
	out := append([]byte(traceMagic), rawChunk(tb, chunkHeader, hb)...)
	for _, r := range rest {
		out = append(out, r...)
	}
	return out
}

// malformedStream is a wire-format violation every reader must reject with an
// error containing want, which names where the bad chunk sits.
type malformedStream struct {
	name, want string
	data       []byte
}

// malformedStreams lists the record-level violations; FuzzReadTrace seeds its
// corpus with them.
func malformedStreams(tb testing.TB) []malformedStream {
	width := int(cupti.NumEvents)
	oneSample := traceHeader{CounterWidth: width, SampleCount: 1}
	oneEvent := traceHeader{CounterWidth: width, EventCount: 1}
	// Every hand-built header chunk ends at the same offset.
	body := len(hostileStream(tb, oneSample))
	at := fmt.Sprintf("chunk at byte offset %d", body)
	return []malformedStream{
		{"partial sample record", at + ": 95 payload bytes are not a whole number",
			hostileStream(tb, oneSample, rawChunk(tb, chunkSamples, make([]byte, sampleRecordBytes-1)))},
		{"event name past chunk end", at + ": event name length 50 runs past the chunk end",
			hostileStream(tb, oneEvent, rawChunk(tb, chunkEvents, []byte{50, 'c', 'o', 'n', 'v'}))},
		{"truncated varint", at + ": record runs past the chunk end",
			hostileStream(tb, oneEvent, rawChunk(tb, chunkEvents, []byte{1, 'x', 0x80}))},
		{"unknown kind", "unknown chunk kind 9 at byte offset " + fmt.Sprint(body),
			hostileStream(tb, oneSample, rawChunk(tb, chunkKind(9), nil))},
		{"zero-length chunk", "empty chunk at byte offset " + fmt.Sprint(body),
			hostileStream(tb, oneSample, []byte{0})},
		{"counter width mismatch", fmt.Sprintf("declares %d counters per sample", width+1),
			hostileStream(tb, traceHeader{CounterWidth: width + 1, SampleCount: 1},
				rawChunk(tb, chunkSamples, make([]byte, sampleRecordBytes)), rawChunk(tb, chunkEnd, nil))},
	}
}

func TestReadTraceRejectsMalformedRecords(t *testing.T) {
	for _, m := range malformedStreams(t) {
		if _, err := ReadTrace(bytes.NewReader(m.data)); err == nil || !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: err = %v, want an error containing %q", m.name, err, m.want)
		}
	}
}

// Trailing garbage after a complete trace must fail loudly with the byte
// offset of the garbage, never silently drop the tail: a collection file
// whose tail is damaged looks exactly like this.
func TestReadTracesTrailingGarbageFailsWithOffset(t *testing.T) {
	full := traceBytes(t, smallTrace(3))
	damaged := append(append([]byte{}, full...), []byte("GARBAGE")...)
	got, err := ReadTraces(bytes.NewReader(damaged))
	if err == nil {
		t.Fatalf("trailing garbage silently dropped: read %d traces", len(got))
	}
	want := fmt.Sprintf("byte offset %d", len(full))
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the garbage offset (%s)", err, want)
	}
}

// A partial final chunk — the classic interrupted download — must fail with
// the offset, and must not silently return only the complete prefix traces.
func TestReadTracesPartialFinalChunkFailsWithOffset(t *testing.T) {
	first := traceBytes(t, smallTrace(2))
	second := traceBytes(t, smallTrace(5))
	stream := append(append([]byte{}, first...), second...)
	for _, cut := range []int{len(first) + 1, len(first) + len(second)/2, len(stream) - 1} {
		got, err := ReadTraces(bytes.NewReader(stream[:cut]))
		if err == nil {
			t.Fatalf("cut at %d/%d accepted: read %d traces", cut, len(stream), len(got))
		}
		if !strings.Contains(err.Error(), "byte offset") {
			t.Fatalf("cut at %d: error %q carries no byte offset", cut, err)
		}
		if !strings.Contains(err.Error(), "trace 1") {
			t.Fatalf("cut at %d: error %q does not name the failing trace index", cut, err)
		}
	}
}

// A short single-byte truncation of the magic itself must also be loud.
func TestReadTracePartialMagicFails(t *testing.T) {
	full := traceBytes(t, smallTrace(1))
	if _, err := ReadTrace(bytes.NewReader(full[:3])); err == nil ||
		!strings.Contains(err.Error(), "byte offset 0") {
		t.Fatalf("partial magic: err = %v, want truncated-magic error at offset 0", err)
	}
}

// The Reader's chunk guard must reject oversized length prefixes before
// buffering anything, and the offset accounting must line up across traces in
// a stream.
func TestReaderChunkGuardAndOffset(t *testing.T) {
	first := traceBytes(t, smallTrace(2))
	second := traceBytes(t, smallTrace(3))
	stream := append(append([]byte{}, first...), second...)

	d := NewReader(bytes.NewReader(stream))
	if _, err := d.Read(); err != nil {
		t.Fatal(err)
	}
	if d.Offset() != int64(len(first)) {
		t.Fatalf("offset after first trace = %d, want %d", d.Offset(), len(first))
	}
	if _, err := d.Read(); err != nil {
		t.Fatal(err)
	}
	if d.Offset() != int64(len(stream)) {
		t.Fatalf("offset after second trace = %d, want %d", d.Offset(), len(stream))
	}
	if _, err := d.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("clean stream end: err = %v, want io.EOF", err)
	}

	tight := NewReader(bytes.NewReader(stream))
	tight.SetMaxChunkBytes(8)
	if _, err := tight.Read(); err == nil || !strings.Contains(err.Error(), "exceeds limit 8") {
		t.Fatalf("tight chunk guard: err = %v, want exceeds-limit error", err)
	}
}

// Hostile headers: a length prefix claiming gigabytes backed by no data, and
// header counts that are negative or overflowed, must fail cheaply instead of
// allocating or panicking.
func TestReadTraceHostileHeader(t *testing.T) {
	// Huge length prefix, no payload.
	huge := append([]byte(traceMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := ReadTrace(bytes.NewReader(huge)); err == nil {
		t.Fatal("overflowing length prefix accepted")
	}
	big := append([]byte(traceMagic), 0xff, 0xff, 0xff, 0x7f) // ~256 MB claim
	if _, err := ReadTrace(bytes.NewReader(big)); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized length prefix: err = %v, want exceeds-limit error", err)
	}

	// Negative header counts.
	width := int(cupti.NumEvents)
	if _, err := ReadTrace(bytes.NewReader(hostileStream(t, traceHeader{CounterWidth: width, SampleCount: -1}))); err == nil ||
		!strings.Contains(err.Error(), "negative counts") {
		t.Fatalf("negative sample count: err = %v, want negative-counts error", err)
	}

	// A header promising more samples than the chunks deliver, with extra
	// sample chunks beyond the promise, must be caught by the overflow check
	// rather than ballooning memory.
	twoSamples := rawChunk(t, chunkSamples, make([]byte, 2*sampleRecordBytes))
	if _, err := ReadTrace(bytes.NewReader(hostileStream(t, traceHeader{CounterWidth: width, SampleCount: 1}, twoSamples))); err == nil ||
		!strings.Contains(err.Error(), "overflows the header") {
		t.Fatalf("sample overflow: err = %v, want overflow error", err)
	}
}

// A real collected trace must still round-trip through the hardened reader
// with a tightened (but sufficient) chunk guard — the server-side ingestion
// configuration.
func TestReaderTightGuardAcceptsRealTrace(t *testing.T) {
	tr, err := Collect(zoo.TinyTestedModels()[0], fastRun(71, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	raw := traceBytes(t, tr)
	d := NewReader(bytes.NewReader(raw))
	d.SetMaxChunkBytes(4 << 20)
	got, err := d.Read()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(tr.Samples) {
		t.Fatalf("round trip changed sample count: %d vs %d", len(got.Samples), len(tr.Samples))
	}
}
