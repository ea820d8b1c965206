package serve

import "sync/atomic"

// Metrics is the daemon's request accounting: monotonic counters for every
// admission outcome plus the two live gauges the overload model is stated in
// (queued and in-flight). Everything is atomics — the handlers update them on
// the hot path — and Snapshot is the single JSON-friendly view that /metrics
// and /healthz export.
type Metrics struct {
	// Admitted counts requests that passed admission control (they held or
	// queued for an execution slot); Shed counts requests bounced with 429
	// because the queue was full; Draining counts requests bounced with 503
	// because the server was shutting down.
	admitted atomic.Int64
	shed     atomic.Int64
	draining atomic.Int64

	// Completed / Failed / Cancelled partition the admitted requests that
	// reached a terminal state: extraction succeeded, extraction (or model
	// warm-up) errored, or the request's deadline/client/drain context died
	// first.
	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64

	// Quarantined counts uploads rejected as malformed mid-stream (truncated
	// or corrupt trace bytes); QuarantineRotated counts old captures deleted
	// to keep the quarantine directory under its caps; TracesExtracted counts
	// individual traces successfully extracted across all requests (one
	// request may carry several).
	quarantined       atomic.Int64
	quarantineRotated atomic.Int64
	tracesExtracted   atomic.Int64

	// TooLarge counts uploads refused with 413 for exceeding MaxUploadBytes;
	// they are not malformed, so they are never quarantined.
	tooLarge atomic.Int64

	// Replayed counts requests answered from the result journal (warm
	// restart) without re-extraction; JournalFailures counts results that
	// could not be durably recorded (served anyway, lost to the next restart).
	replayed        atomic.Int64
	journalFailures atomic.Int64

	// queued and inFlight are gauges: requests admitted but waiting for an
	// execution slot, and requests holding one.
	queued   atomic.Int64
	inFlight atomic.Int64
}

// MetricsSnapshot is one consistent-enough read of every counter and gauge
// (each field is individually atomic; the set is not a transaction, which is
// fine for monitoring).
type MetricsSnapshot struct {
	Admitted          int64 `json:"admitted"`
	Shed              int64 `json:"shed"`
	Draining          int64 `json:"draining_rejects"`
	Completed         int64 `json:"completed"`
	Failed            int64 `json:"failed"`
	Cancelled         int64 `json:"cancelled"`
	Quarantined       int64 `json:"quarantined"`
	QuarantineRotated int64 `json:"quarantine_rotated"`
	TracesExtracted   int64 `json:"traces_extracted"`
	TooLarge          int64 `json:"too_large"`
	Replayed          int64 `json:"replayed"`
	JournalFailures   int64 `json:"journal_failures"`
	Queued            int64 `json:"queued"`
	InFlight          int64 `json:"in_flight"`
}

// Snapshot reads every counter and gauge.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Admitted:          m.admitted.Load(),
		Shed:              m.shed.Load(),
		Draining:          m.draining.Load(),
		Completed:         m.completed.Load(),
		Failed:            m.failed.Load(),
		Cancelled:         m.cancelled.Load(),
		Quarantined:       m.quarantined.Load(),
		QuarantineRotated: m.quarantineRotated.Load(),
		TracesExtracted:   m.tracesExtracted.Load(),
		TooLarge:          m.tooLarge.Load(),
		Replayed:          m.replayed.Load(),
		JournalFailures:   m.journalFailures.Load(),
		Queued:            m.queued.Load(),
		InFlight:          m.inFlight.Load(),
	}
}
