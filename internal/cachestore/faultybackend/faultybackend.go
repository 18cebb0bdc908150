// Package faultybackend wraps a cachestore.Backend in deterministic,
// seeded faults: injected errors, latency spikes, truncated and corrupted
// payloads, and full partitions.
//
// The verdict store is advisory — a cache may change how many probes a
// search simulates, never what it answers — so the repo's chaos suite
// drives analyses through backends wrapped by this package and asserts
// the final sizings are byte-identical to a cache-less run under every
// schedule. Like internal/faults, every injected fault is a pure function
// of (Seed, op index): op k misbehaves iff
// splitmix.Mix(seed ⊕ splitmix.Mix(k) ⊕ salt) mod N == 0 for that fault's
// one-in-N rate, so a failing run replays bit-identically from its seed.
//
// Payload faults (truncation, corruption) model a store that serves bytes
// it should not; they exercise probecache's all-or-nothing trust
// validation. Op faults (errors, latency, partition) model an unreachable
// or slow store; they exercise the resilience layer's retries, breaker,
// and demotion. Latency honours the op Context so a per-attempt deadline
// converts a spike into an attempt error rather than a stall.
package faultybackend

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/cachestore"
	"vrdfcap/internal/splitmix"
)

// ErrInjected is the transport-style failure every injected op fault and
// partition returns. It is deliberately neither cachestore.ErrNotFound nor
// budget-classified: the resilience layer must treat it as backend
// unhealthiness (retry, then demote), never as a miss or a caller abort.
var ErrInjected = errors.New("faultybackend: injected fault")

// Spec is a seeded fault schedule. Each OneIn rate makes one in N ops (or
// Read payloads) misbehave; zero disables that fault. The zero Spec
// injects nothing.
type Spec struct {
	// Seed selects the schedule; equal (Seed, Spec) pairs replay
	// identically.
	Seed uint64
	// ErrorOneIn fails one in N ops with ErrInjected.
	ErrorOneIn uint64
	// LatencyOneIn delays one in N ops by Latency (default 1ms) before
	// they proceed, aborting early with the op Context's budget error if
	// it expires first — a slow store, not a dead one.
	LatencyOneIn uint64
	Latency      time.Duration
	// TruncateOneIn cuts one in N Read payloads to a schedule-chosen
	// proper prefix — a torn write or a short body.
	TruncateOneIn uint64
	// CorruptOneIn flips one byte (XOR 0xff) of one in N Read payloads at
	// a schedule-chosen offset — bit rot the content checksum must catch.
	CorruptOneIn uint64
	// Partitioned fails every op with ErrInjected: the store is
	// unreachable. Overrides all rates.
	Partitioned bool
}

// Salts decorrelate the per-fault draw streams for one op index.
const (
	saltError    = 0x6572726f72 // "error"
	saltLatency  = 0x6c6174
	saltTruncate = 0x7472756e63
	saltCorrupt  = 0x636f7272
)

// Backend injects Spec's faults around an inner backend.
type Backend struct {
	inner  cachestore.Backend
	spec   Spec
	ops    atomic.Uint64
	faults atomic.Uint64
}

// Wrap builds the injector. The inner backend is used verbatim for every
// op the schedule leaves healthy.
func Wrap(inner cachestore.Backend, spec Spec) *Backend {
	if spec.Latency <= 0 {
		spec.Latency = time.Millisecond
	}
	return &Backend{inner: inner, spec: spec}
}

// Ops reports the total ops seen; Faults the ops (or payloads) the
// schedule made misbehave. Both are safe for concurrent use.
func (b *Backend) Ops() uint64    { return b.ops.Load() }
func (b *Backend) Faults() uint64 { return b.faults.Load() }

func (b *Backend) String() string { return "faulty(" + b.inner.String() + ")" }

// draw is the deterministic per-(op, fault) uniform draw.
func (b *Backend) draw(k, salt uint64) uint64 {
	return splitmix.Mix(b.spec.Seed ^ splitmix.Mix(k) ^ salt)
}

// hits reports whether op k triggers a one-in-n fault.
func (b *Backend) hits(k, salt, n uint64) bool {
	return n > 0 && b.draw(k, salt)%n == 0
}

// gate runs the op-level schedule for op k: partition, latency spike,
// injected error. A non-nil return is the op's result.
func (b *Backend) gate(ctx context.Context, k uint64) error {
	if err := ctx.Err(); err != nil {
		return budget.Classify(err)
	}
	if b.spec.Partitioned {
		b.faults.Add(1)
		return ErrInjected
	}
	if b.hits(k, saltLatency, b.spec.LatencyOneIn) {
		b.faults.Add(1)
		t := time.NewTimer(b.spec.Latency)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return budget.Classify(ctx.Err())
		case <-t.C:
		}
	}
	if b.hits(k, saltError, b.spec.ErrorOneIn) {
		b.faults.Add(1)
		return ErrInjected
	}
	return nil
}

// Read delegates and then applies the payload schedule: a truncated or
// corrupted body is returned as if it were the stored content.
func (b *Backend) Read(ctx context.Context, fp string) ([]byte, error) {
	k := b.ops.Add(1) - 1
	if err := b.gate(ctx, k); err != nil {
		return nil, err
	}
	data, err := b.inner.Read(ctx, fp)
	if err != nil {
		return nil, err
	}
	if len(data) > 0 && b.hits(k, saltTruncate, b.spec.TruncateOneIn) {
		b.faults.Add(1)
		data = data[:b.draw(k, saltTruncate^1)%uint64(len(data))]
	}
	if len(data) > 0 && b.hits(k, saltCorrupt, b.spec.CorruptOneIn) {
		b.faults.Add(1)
		data = append([]byte(nil), data...)
		data[b.draw(k, saltCorrupt^1)%uint64(len(data))] ^= 0xff
	}
	return data, nil
}

func (b *Backend) Write(ctx context.Context, fp string, data []byte) error {
	if err := b.gate(ctx, b.ops.Add(1)-1); err != nil {
		return err
	}
	return b.inner.Write(ctx, fp, data)
}

func (b *Backend) Delete(ctx context.Context, fp string) error {
	if err := b.gate(ctx, b.ops.Add(1)-1); err != nil {
		return err
	}
	return b.inner.Delete(ctx, fp)
}

func (b *Backend) List(ctx context.Context) ([]string, error) {
	if err := b.gate(ctx, b.ops.Add(1)-1); err != nil {
		return nil, err
	}
	return b.inner.List(ctx)
}
