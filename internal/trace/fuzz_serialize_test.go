package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"leakydnn/internal/cupti"
)

// FuzzReadTrace throws arbitrary bytes at the length-prefixed wire format:
// hostile length prefixes, truncated chunks, bit-flipped headers and records,
// malformed sample and event records, and trailing garbage must all come back
// as errors — never a panic, an unbounded allocation, or a silently partial
// read. Streams that do decode must survive a write/read round trip
// bit-stably.
func FuzzReadTrace(f *testing.F) {
	valid := func(samples int) []byte {
		t := &Trace{}
		for i := 0; i < samples; i++ {
			t.Samples = append(t.Samples, cupti.Sample{})
		}
		var buf bytes.Buffer
		if _, err := t.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	one := valid(3)
	f.Add(one)
	f.Add(one[:len(one)/2])                                                                       // truncated mid-trace
	f.Add(append(append([]byte{}, one...), 0xde, 0xad))                                           // trailing garbage
	f.Add(append(append([]byte{}, one...), valid(400)...))                                        // multi-trace
	f.Add([]byte(traceMagic))                                                                     // magic only
	f.Add(append([]byte(traceMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)) // overflowing length
	f.Add(append([]byte(traceMagic), 0xff, 0xff, 0xff, 0x7f))                                     // huge length, no payload
	{
		flip := append([]byte{}, one...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
	}
	for _, m := range malformedStreams(f) {
		f.Add(m.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The tight guard is the network-ingestion configuration; it must
		// bound work without ever changing a success into a panic.
		d := NewReader(bytes.NewReader(data))
		d.SetMaxChunkBytes(1 << 20)
		var decoded []*Trace
		for {
			tr, err := d.Read()
			if err != nil {
				if !errors.Is(err, io.EOF) && d.Offset() == 0 && len(data) > 0 {
					t.Fatalf("error before consuming any bytes: %v", err)
				}
				break
			}
			if tr == nil {
				t.Fatal("Read returned nil trace with nil error")
			}
			decoded = append(decoded, tr)
		}

		// Anything that decoded must re-serialize and decode back to the
		// same shape: the format has no accept-but-cannot-rewrite states.
		for i, tr := range decoded {
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				t.Fatalf("trace %d decoded but will not re-serialize: %v", i, err)
			}
			back, err := ReadTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("trace %d round trip failed: %v", i, err)
			}
			if len(back.Samples) != len(tr.Samples) {
				t.Fatalf("trace %d round trip changed sample count: %d vs %d",
					i, len(back.Samples), len(tr.Samples))
			}
			if j := firstBitDifference(back.Samples, tr.Samples); j >= 0 {
				t.Fatalf("trace %d round trip changed the bits of sample %d", i, j)
			}
		}
	})
}
