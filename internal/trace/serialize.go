package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
	"leakydnn/internal/tfsim"
)

// Streaming trace serialization, wire format v2. A trace is the magic, then a
// sequence of chunks; each chunk is a uvarint length followed by that many
// payload bytes, the first of which is the chunk kind:
//
//	header   one gob stream of traceHeader: run metadata, health, the
//	         counter width, and the sample and event counts the chunks
//	         that follow must deliver
//	samples  fixed sampleRecordBytes records: Start and End as int64, then
//	         the NumEvents counter values as float64 bit patterns, all
//	         little-endian
//	events   one record per timeline event: the name as a uvarint length
//	         plus bytes, then Start, End, Iteration and Op as varints; Op
//	         indexes the header's op table (-1 for none), which restores the
//	         pointer-into-Ops identity on read
//	end      no further payload; seals the trace
//
// Only the header is gob, so sample and event records decode without
// reflection, straight from the stream into the trace. A reader never holds
// more than one record beyond the trace it is building, and traces written
// back to back form a multi-trace stream.

// traceMagic guards against feeding an arbitrary file to ReadTrace; the
// trailing byte is the format version.
const traceMagic = "MOSCONS\x02"

// samplesPerChunk bounds a sample chunk (~190 KB of records).
const samplesPerChunk = 2048

// eventsPerChunk bounds a timeline chunk the same way.
const eventsPerChunk = 2048

// sampleRecordBytes is the wire size of one cupti.Sample.
const sampleRecordBytes = 16 + 8*int(cupti.NumEvents)

type chunkKind byte

const (
	chunkHeader chunkKind = iota + 1
	chunkSamples
	chunkEvents
	chunkEnd
)

func (k chunkKind) String() string {
	switch k {
	case chunkHeader:
		return "header"
	case chunkSamples:
		return "sample"
	case chunkEvents:
		return "event"
	case chunkEnd:
		return "end"
	}
	return fmt.Sprintf("kind-%d", byte(k))
}

// traceHeader is the first chunk of every serialized trace.
type traceHeader struct {
	Model               dnn.Model
	Ops                 []dnn.Op
	VictimWall          gpu.Nanos
	SpyProbeLaunches    int
	SpyChannelsRejected int
	SchedSlices         int
	Reanchors           []gpu.Nanos
	Health              *Health
	// CounterWidth is the number of counter values in each sample record;
	// a reader built with a different cupti.NumEvents rejects the trace.
	CounterWidth int
	// SampleCount and EventCount let the reader verify the stream was not
	// truncated mid-trace.
	SampleCount int
	EventCount  int
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeChunkPrefix writes a chunk's length prefix and kind byte; payloadLen
// payload bytes must follow.
func writeChunkPrefix(w io.Writer, kind chunkKind, payloadLen int) error {
	var pre [binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(pre[:], uint64(payloadLen)+1)
	pre[n] = byte(kind)
	_, err := w.Write(pre[:n+1])
	return err
}

func writeChunk(w io.Writer, kind chunkKind, payload []byte) error {
	if err := writeChunkPrefix(w, kind, len(payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// encodeHeader gob-encodes h as one self-contained stream: a reader never
// needs type state from an earlier trace, which is what lets multi-trace
// files be a plain concatenation.
func encodeHeader(h *traceHeader) ([]byte, error) {
	var bb bytes.Buffer
	if err := gob.NewEncoder(&bb).Encode(h); err != nil {
		return nil, fmt.Errorf("trace: encode header: %w", err)
	}
	return bb.Bytes(), nil
}

func putSample(b []byte, s *cupti.Sample) {
	binary.LittleEndian.PutUint64(b[0:], uint64(s.Start))
	binary.LittleEndian.PutUint64(b[8:], uint64(s.End))
	for i, v := range s.Values {
		binary.LittleEndian.PutUint64(b[16+8*i:], math.Float64bits(v))
	}
}

func getSample(b []byte, s *cupti.Sample) {
	s.Start = gpu.Nanos(binary.LittleEndian.Uint64(b[0:]))
	s.End = gpu.Nanos(binary.LittleEndian.Uint64(b[8:]))
	for i := range s.Values {
		s.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[16+8*i:]))
	}
}

// WriteTo serializes the trace onto w in the chunked wire format and
// implements io.WriterTo. Traces written back to back onto the same writer
// form a valid multi-trace stream for ReadTraces.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)

	opIdx := make(map[*dnn.Op]int, len(t.Ops))
	for i := range t.Ops {
		opIdx[&t.Ops[i]] = i
	}
	var events []tfsim.TimelineEvent
	if t.Timeline != nil {
		events = t.Timeline.Events()
	}

	if _, err := bw.WriteString(traceMagic); err != nil {
		return cw.n, err
	}
	hdr, err := encodeHeader(&traceHeader{
		Model:               t.Model,
		Ops:                 t.Ops,
		VictimWall:          t.VictimWall,
		SpyProbeLaunches:    t.SpyProbeLaunches,
		SpyChannelsRejected: t.SpyChannelsRejected,
		SchedSlices:         t.SchedSlices,
		Reanchors:           t.Reanchors,
		Health:              t.Health,
		CounterWidth:        int(cupti.NumEvents),
		SampleCount:         len(t.Samples),
		EventCount:          len(events),
	})
	if err != nil {
		return cw.n, err
	}
	if err := writeChunk(bw, chunkHeader, hdr); err != nil {
		return cw.n, err
	}
	var rec [sampleRecordBytes]byte
	for off := 0; off < len(t.Samples); off += samplesPerChunk {
		batch := t.Samples[off:min(off+samplesPerChunk, len(t.Samples))]
		if err := writeChunkPrefix(bw, chunkSamples, len(batch)*sampleRecordBytes); err != nil {
			return cw.n, err
		}
		for i := range batch {
			putSample(rec[:], &batch[i])
			if _, err := bw.Write(rec[:]); err != nil {
				return cw.n, err
			}
		}
	}
	var payload []byte
	for i, e := range events {
		op := -1
		if e.Op != nil {
			j, ok := opIdx[e.Op]
			if !ok {
				return cw.n, fmt.Errorf("trace: timeline event %q points outside the trace's op table", e.Name)
			}
			op = j
		}
		payload = binary.AppendUvarint(payload, uint64(len(e.Name)))
		payload = append(payload, e.Name...)
		payload = binary.AppendVarint(payload, int64(e.Start))
		payload = binary.AppendVarint(payload, int64(e.End))
		payload = binary.AppendVarint(payload, int64(e.Iteration))
		payload = binary.AppendVarint(payload, int64(op))
		if (i+1)%eventsPerChunk == 0 || i == len(events)-1 {
			if err := writeChunk(bw, chunkEvents, payload); err != nil {
				return cw.n, err
			}
			payload = payload[:0]
		}
	}
	if err := writeChunk(bw, chunkEnd, nil); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

// maxChunkBytes rejects absurd length prefixes before reading: the default
// guard for trusted files. Servers ingesting traces from the network should
// tighten it with Reader.SetMaxChunkBytes — the writer never emits chunks
// beyond a few hundred KB at the current chunk sizes.
const maxChunkBytes = 64 << 20

// growFloor is the smallest capacity, in elements, that reserve allocates.
const growFloor = 256

// Reader decodes traces from one stream incrementally, tracking the logical
// byte offset of everything it consumes so every error names where in the
// stream the damage sits. The zero value is not usable; build with NewReader.
type Reader struct {
	br       *bufio.Reader
	off      int64
	maxChunk uint64

	// rem is the unread part of the current chunk, which starts at byte
	// offset chunkStart and declared chunkLen bytes after its prefix.
	rem, chunkStart, chunkLen int64

	// hdr stages the header chunk for gob.
	hdr bytes.Buffer
}

// NewReader wraps r for incremental trace decoding with the default chunk
// guard.
func NewReader(r io.Reader) *Reader {
	// bufio.NewReader reuses r when it is already a large enough
	// *bufio.Reader; its buffer always holds a whole sample record.
	return &Reader{br: bufio.NewReader(r), maxChunk: maxChunkBytes}
}

// SetMaxChunkBytes tightens (or loosens) the per-chunk length guard: a chunk
// whose length prefix exceeds n fails immediately instead of being read.
// Network-facing ingestion should set this well below the trusting file
// default. n <= 0 restores the default.
func (d *Reader) SetMaxChunkBytes(n int64) {
	if n <= 0 {
		d.maxChunk = maxChunkBytes
		return
	}
	d.maxChunk = uint64(n)
}

// Offset returns the number of stream bytes consumed so far — after an
// error, the position at or before which the stream went bad.
func (d *Reader) Offset() int64 { return d.off }

var errVarintOverflow = errors.New("varint overflows 64 bits")

// uvarint is binary.ReadUvarint over a byte source.
func uvarint(next func() (byte, error)) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := next()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errVarintOverflow
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, errVarintOverflow
}

// streamByte reads one byte outside any chunk, with byte accounting.
func (d *Reader) streamByte() (byte, error) {
	b, err := d.br.ReadByte()
	if err == nil {
		d.off++
	}
	return b, err
}

// payloadByte reads one byte of the current chunk; it refuses to read past
// the chunk's end.
func (d *Reader) payloadByte() (byte, error) {
	if d.rem == 0 {
		return 0, fmt.Errorf("record runs past the chunk end (%d payload bytes)", d.chunkLen)
	}
	b, err := d.br.ReadByte()
	if err != nil {
		return 0, d.truncated(err)
	}
	d.off++
	d.rem--
	return b, nil
}

func (d *Reader) payloadVarint() (int64, error) {
	ux, err := uvarint(d.payloadByte)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// consume discards n bytes the bufio buffer already holds.
func (d *Reader) consume(n int) {
	d.br.Discard(n) //nolint:errcheck // n bytes are buffered: Discard cannot fail
	d.off += int64(n)
	d.rem -= int64(n)
}

// truncated reports the stream ending inside the current chunk.
func (d *Reader) truncated(err error) error {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("truncated: read %d of %d payload bytes: %w", d.chunkLen-d.rem, d.chunkLen, err)
}

// peek returns the next n payload bytes (n <= the bufio buffer size) without
// consuming them; on a short stream it consumes what is left and fails.
func (d *Reader) peek(n int) ([]byte, error) {
	b, err := d.br.Peek(n)
	if err != nil {
		d.consume(len(b))
		return nil, d.truncated(err)
	}
	return b, nil
}

// readPayload appends the next n payload bytes to dst, a buffer's worth at a
// time, so a length the stream does not back costs no up-front allocation.
func (d *Reader) readPayload(dst *bytes.Buffer, n int64) error {
	for n > 0 {
		b, err := d.peek(int(min(n, int64(d.br.Size()))))
		if err != nil {
			return err
		}
		dst.Write(b)
		d.consume(len(b))
		n -= int64(len(b))
	}
	return nil
}

// nextChunk reads a chunk's length prefix and kind byte, leaving d.rem at the
// payload bytes that follow. It returns a bare io.EOF only when the stream
// ends cleanly before the prefix.
func (d *Reader) nextChunk() (chunkKind, error) {
	start := d.off
	n, err := uvarint(d.streamByte)
	if err != nil {
		if errors.Is(err, io.EOF) && d.off > start {
			err = io.ErrUnexpectedEOF
		}
		if errors.Is(err, io.EOF) {
			return 0, err
		}
		return 0, fmt.Errorf("trace: chunk length prefix at byte offset %d: %w", start, err)
	}
	if n > d.maxChunk {
		return 0, fmt.Errorf("trace: chunk at byte offset %d: length %d exceeds limit %d", start, n, d.maxChunk)
	}
	if n == 0 {
		return 0, fmt.Errorf("trace: empty chunk at byte offset %d: no kind byte", start)
	}
	d.chunkStart, d.chunkLen, d.rem = start, int64(n), int64(n)
	kind, err := d.payloadByte()
	if err != nil {
		return 0, fmt.Errorf("trace: chunk at byte offset %d: %w", start, err)
	}
	return chunkKind(kind), nil
}

// readHeader decodes the header chunk's gob stream.
func (d *Reader) readHeader() (*traceHeader, error) {
	d.hdr.Reset()
	if err := d.readPayload(&d.hdr, d.rem); err != nil {
		return nil, err
	}
	hdr := new(traceHeader)
	if err := gob.NewDecoder(&d.hdr).Decode(hdr); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if d.hdr.Len() != 0 {
		return nil, fmt.Errorf("%d bytes follow the header value", d.hdr.Len())
	}
	return hdr, nil
}

// reserve returns s with room for n more elements, where n counts records
// the stream has already delivered. Capacity doubles with the records
// delivered (growFloor at the least) and jumps to the header's promise once
// it is within a factor of two of it, so a well-formed trace ends with no
// spare capacity after copies totalling less than its final size, and no
// length claim — the header's counts or a chunk's prefix — buys more than
// four times the records the stream backs.
func reserve[E any](s []E, n, promised int) []E {
	if len(s)+n <= cap(s) {
		return s
	}
	c := max(2*(len(s)+n), growFloor)
	if 2*c >= promised {
		c = promised
	}
	out := make([]E, len(s), c)
	copy(out, s)
	return out
}

// readSamples decodes a sample chunk's records straight into t.Samples.
func (d *Reader) readSamples(t *Trace, promised int) error {
	if d.rem%int64(sampleRecordBytes) != 0 {
		return fmt.Errorf("%d payload bytes are not a whole number of %d-byte sample records", d.rem, sampleRecordBytes)
	}
	n := int(d.rem / int64(sampleRecordBytes))
	if n > promised-len(t.Samples) {
		return fmt.Errorf("overflows the header's promise of %d samples by %d records", promised, len(t.Samples)+n-promised)
	}
	batch := d.br.Size() / sampleRecordBytes * sampleRecordBytes
	for d.rem > 0 {
		recs, err := d.peek(int(min(d.rem, int64(batch))))
		if err != nil {
			return err
		}
		t.Samples = reserve(t.Samples, len(recs)/sampleRecordBytes, promised)
		for off := 0; off < len(recs); off += sampleRecordBytes {
			t.Samples = t.Samples[:len(t.Samples)+1]
			getSample(recs[off:], &t.Samples[len(t.Samples)-1])
		}
		d.consume(len(recs))
	}
	return nil
}

// eventName reads an event name of n payload bytes.
func (d *Reader) eventName(n int) (string, error) {
	if n > d.br.Size() {
		var b bytes.Buffer
		err := d.readPayload(&b, int64(n))
		return b.String(), err
	}
	b, err := d.peek(n)
	if err != nil {
		return "", err
	}
	name := string(b)
	d.consume(n)
	return name, nil
}

// readEvents decodes an event chunk's records, resolving op indices into ops.
func (d *Reader) readEvents(events []tfsim.TimelineEvent, ops []dnn.Op, promised int) ([]tfsim.TimelineEvent, error) {
	for d.rem > 0 {
		if len(events) == promised {
			return events, fmt.Errorf("overflows the header's promise of %d events", promised)
		}
		n, err := uvarint(d.payloadByte)
		if err != nil {
			return events, err
		}
		if n > uint64(d.rem) {
			return events, fmt.Errorf("event name length %d runs past the chunk end (%d bytes left)", n, d.rem)
		}
		name, err := d.eventName(int(n))
		if err != nil {
			return events, err
		}
		var v [4]int64 // Start, End, Iteration, Op
		for i := range v {
			if v[i], err = d.payloadVarint(); err != nil {
				return events, err
			}
		}
		ev := tfsim.TimelineEvent{Name: name, Start: gpu.Nanos(v[0]), End: gpu.Nanos(v[1]), Iteration: int(v[2])}
		if op := v[3]; op != -1 {
			if op < 0 || op >= int64(len(ops)) {
				return events, fmt.Errorf("event op index %d outside op table of %d", op, len(ops))
			}
			ev.Op = &ops[op]
		}
		events = append(reserve(events, 1, promised), ev)
	}
	return events, nil
}

// Read decodes the next trace from the stream. It returns io.EOF exactly when
// the stream ends cleanly at a trace boundary (including an empty stream);
// any bytes past a boundary that do not form a complete trace — trailing
// garbage, a partial final chunk — fail loudly with the byte offset.
func (d *Reader) Read() (*Trace, error) {
	start := d.off
	var magic [len(traceMagic)]byte
	n, err := io.ReadFull(d.br, magic[:])
	d.off += int64(n)
	if err != nil {
		if errors.Is(err, io.EOF) && n == 0 {
			return nil, io.EOF // clean end of a multi-trace stream
		}
		return nil, fmt.Errorf("trace: truncated magic at byte offset %d (%d of %d bytes): %w",
			start, n, len(traceMagic), err)
	}
	if string(magic[:]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q at byte offset %d (not a serialized trace, trailing garbage, or unsupported version)",
			magic, start)
	}

	kind, err := d.nextChunk()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("trace: stream ends after magic at byte offset %d: %w", d.off, io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	if kind != chunkHeader {
		return nil, fmt.Errorf("trace: stream does not start with a header chunk (kind %d) at byte offset %d", kind, start)
	}
	hdr, err := d.readHeader()
	if err != nil {
		return nil, fmt.Errorf("trace: header chunk at byte offset %d: %w", d.chunkStart, err)
	}
	if hdr.SampleCount < 0 || hdr.EventCount < 0 {
		return nil, fmt.Errorf("trace: header at byte offset %d carries negative counts (%d samples, %d events)",
			start, hdr.SampleCount, hdr.EventCount)
	}
	if hdr.CounterWidth != int(cupti.NumEvents) {
		return nil, fmt.Errorf("trace: header at byte offset %d declares %d counters per sample, this build records %d",
			start, hdr.CounterWidth, cupti.NumEvents)
	}
	t := &Trace{
		Model:               hdr.Model,
		Ops:                 hdr.Ops,
		VictimWall:          hdr.VictimWall,
		SpyProbeLaunches:    hdr.SpyProbeLaunches,
		SpyChannelsRejected: hdr.SpyChannelsRejected,
		SchedSlices:         hdr.SchedSlices,
		Reanchors:           hdr.Reanchors,
		Health:              hdr.Health,
	}
	var events []tfsim.TimelineEvent
	for {
		kind, err := d.nextChunk()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("trace: truncated stream: trace starting at byte offset %d ends mid-trace at byte offset %d: %w",
					start, d.off, io.ErrUnexpectedEOF)
			}
			return nil, err
		}
		switch kind {
		case chunkSamples:
			err = d.readSamples(t, hdr.SampleCount)
		case chunkEvents:
			events, err = d.readEvents(events, t.Ops, hdr.EventCount)
		case chunkEnd:
			switch {
			case d.rem != 0:
				err = fmt.Errorf("%d unexpected payload bytes", d.rem)
			case len(t.Samples) != hdr.SampleCount:
				err = fmt.Errorf("stream carried %d samples, header promised %d", len(t.Samples), hdr.SampleCount)
			case len(events) != hdr.EventCount:
				err = fmt.Errorf("stream carried %d timeline events, header promised %d", len(events), hdr.EventCount)
			default:
				t.Timeline = tfsim.TimelineFromEvents(events)
				return t, nil
			}
		case chunkHeader:
			err = errors.New("a second header inside the trace")
		default:
			return nil, fmt.Errorf("trace: unknown chunk kind %d at byte offset %d", kind, d.chunkStart)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: %s chunk at byte offset %d: %w", kind, d.chunkStart, err)
		}
	}
}

// ReadTrace decodes one trace from r. Use a Reader directly when reading
// several traces from one stream incrementally, or ReadTraces to slurp them
// all.
func ReadTrace(r io.Reader) (*Trace, error) {
	return NewReader(r).Read()
}

// ReadTraces decodes every trace from a concatenated stream until EOF. Any
// malformed tail — trailing garbage, a partial final chunk — is an error
// carrying the byte offset, never a silently dropped trace.
func ReadTraces(r io.Reader) ([]*Trace, error) {
	d := NewReader(r)
	var out []*Trace
	for {
		t, err := d.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("trace: trace %d: %w", len(out), err)
		}
		out = append(out, t)
	}
}

// WriteTraces serializes a collection back to back onto w.
func WriteTraces(w io.Writer, traces []*Trace) error {
	for i, t := range traces {
		if _, err := t.WriteTo(w); err != nil {
			return fmt.Errorf("trace: trace %d: %w", i, err)
		}
	}
	return nil
}
