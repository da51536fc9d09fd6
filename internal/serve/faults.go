package serve

import (
	"errors"
	"fmt"
)

// This file is the fault-injection seam and the error taxonomy the serving
// loop retries against. The production paths call the hooks at their natural
// failure points; a chaos layer (internal/chaos) plugs deterministic fault
// processes into them, and the pipeline's retry logic is written against the
// error classes below rather than against any concrete fault source.

// FaultHooks are optional interception points on the serving hot paths.
// Every field may be nil. A hook that returns a non-nil error makes the
// corresponding operation fail exactly as a real infrastructure fault would:
// before any state mutation, so a retry observes a clean slate. Latency
// hooks (ShardRead, Request) block the caller and model slow hardware.
//
// The hooks exist for fault injection, so implementations must be safe for
// concurrent use — ingest, snapshot builds and HTTP requests all race.
type FaultHooks struct {
	// IngestTests runs after a test batch validates but before it is
	// applied; an error aborts the batch with no state change.
	IngestTests func(n int) error
	// IngestTickets is the same seam on the ticket path.
	IngestTickets func(n int) error
	// SnapshotBuild runs before a snapshot rebuild; an error fails the
	// rebuild, and the store keeps serving its last good snapshot.
	SnapshotBuild func(version uint64) error
	// ShardRead runs per shard during a snapshot build, inside the shard's
	// read-locked section — the slow-disk / slow-NUMA-node stand-in.
	ShardRead func(shard int)
	// ReloadProbe runs before the hot-reload equality probe; an error
	// aborts the reload and the old model generation keeps serving.
	ReloadProbe func() error
	// Request runs at the top of every API request that passed admission
	// (load shed), before the handler; it may sleep to model slow backends.
	Request func(endpoint string)
}

// ErrTransient marks a failure that is expected to clear on its own: a feed
// hiccup, a timed-out ingest, a failed snapshot rebuild. The pipeline
// retries transient errors with bounded exponential backoff; anything not
// wrapped as transient (and not a bad batch) is terminal for the loop.
var ErrTransient = errors.New("transient fault")

// Transient wraps err so IsTransient reports true for it. A nil err stays
// nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// ErrBadBatch marks an ingest batch that failed validation. The store
// rejects such batches atomically (nothing is applied), so the pipeline's
// correct response is to discard the delivery and re-pull the week from the
// feed — corruption in transit, not corruption at rest.
var ErrBadBatch = errors.New("bad batch")

// IsBadBatch reports whether err is a batch-validation rejection.
func IsBadBatch(err error) bool { return errors.Is(err, ErrBadBatch) }

// ErrStale is a pipeline backend's "not caught up yet" (Backend.WaitFresh):
// a snapshot rebuild failed or lags the ingest. The pipeline backs off and
// asks again, so a ranking never runs over partial data.
var ErrStale = errors.New("snapshot stale after ingest")
