package par

import (
	"context"
	"sync/atomic"
)

// Canceller polls a context from hot loops at a cost the loops can afford.
// Cancellation in this runtime is cooperative: workers never block on the
// context, they poll it — at work-item granularity in the schedulers,
// strided every 2^10 items in tight per-edge loops, and at every phase
// boundary. Once one poll observes cancellation the sticky flag makes every
// later check a single atomic load, so all workers of a parallel region
// quiesce within one stride of each other.
//
// A Canceller built from a nil context, context.Background(), or any other
// context that can never be cancelled (Done() == nil) is inert: every
// check is a nil comparison. The zero value is likewise inert.
type Canceller struct {
	ctx     context.Context
	done    <-chan struct{}
	stopped atomic.Bool
}

// strideMask spaces the context polls of Stride: one real poll every 1024
// items keeps worst-case cancellation latency in the microseconds while the
// per-item cost stays a mask test.
const strideMask = 1<<10 - 1

// inert is the shared Canceller for contexts that can never be cancelled.
// It is never mutated (Poll exits before touching stopped when done is
// nil), so sharing one instance across all uncancellable runs is safe and
// keeps NewCanceller allocation-free on the common nil-context path.
var inert Canceller

// NewCanceller wraps ctx (which may be nil) for cooperative polling.
// Uncancellable contexts (nil, context.Background(), any Done() == nil)
// share a single inert instance, so building a Canceller costs nothing
// unless cancellation is actually possible.
func NewCanceller(ctx context.Context) *Canceller {
	if ctx == nil {
		return &inert
	}
	done := ctx.Done()
	if done == nil {
		return &inert
	}
	return &Canceller{ctx: ctx, done: done}
}

// Poll checks the context now and reports whether the run is cancelled.
// Intended for phase boundaries and scheduler idle loops.
func (c *Canceller) Poll() bool {
	if c == nil || c.done == nil {
		return false
	}
	if c.stopped.Load() {
		return true
	}
	select {
	case <-c.done:
		c.stopped.Store(true)
		return true
	default:
		return false
	}
}

// Stride is the per-item check for tight loops: a nil test, then a sticky
// atomic load, and a real context poll only every 1024th item index.
func (c *Canceller) Stride(i int) bool {
	if c == nil || c.done == nil {
		return false
	}
	if c.stopped.Load() {
		return true
	}
	if i&strideMask != 0 {
		return false
	}
	return c.Poll()
}

// Err returns the context's error: non-nil exactly when the context is
// cancelled or past its deadline. Safe on an inert Canceller.
func (c *Canceller) Err() error {
	if c == nil || c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}
