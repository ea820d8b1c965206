package leakydnn

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// goldenExtractionSHA256 pins what MoSConS recovers from every tested trace
// of the tiny-scale workbench: the SHA-256 of their newline-terminated
// Recovery fingerprints, in Tested order. The service-vs-offline and
// resume-vs-uninterrupted checks are relative and would pass if both sides
// drifted together; this literal is absolute, so any change to collection,
// training or inference numerics shows up here.
const goldenExtractionSHA256 = "18a6adf19834d7ed3ecdc3da363f0184dbc8e023c3eed082a4eb07e32c618e1f"

func TestExtractionGolden(t *testing.T) {
	w := sharedWorkbench(t)
	h := sha256.New()
	for i, tr := range w.Tested {
		rec, err := w.Models.ExtractTrace(tr)
		if err != nil {
			t.Fatalf("tested trace %d: %v", i, err)
		}
		fmt.Fprintln(h, rec.Fingerprint())
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenExtractionSHA256 {
		t.Fatalf("extraction of the %d tiny tested traces drifted from the golden hash:\n got %s\nwant %s",
			len(w.Tested), got, goldenExtractionSHA256)
	}
}
