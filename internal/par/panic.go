package par

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Worker panics.
//
// A goroutine that panics without a recover kills the whole process — for a
// library runtime that may be hosting a service, an unacceptable failure
// mode. Every goroutine Spawn starts therefore recovers panics from its
// body, converts the first one into a *PanicError (capturing the stack
// and the work-item index being processed), lets the remaining workers
// finish their current chunks, joins all of them, and only then re-raises
// the *PanicError on the calling goroutine. The guarantees callers get:
//
//   - no goroutine leaks: every worker has exited before the panic
//     propagates;
//   - a single, typed panic value: concurrent panics collapse to the first
//     one observed (the others are counted, not lost silently);
//   - an intact stack trace of the original panic site in PanicError.Stack.
//
// Callers with an error return (sched.Bag.ForEachObs, the MST algorithms)
// surface the *PanicError as an ordinary error; plain callers crash exactly
// as before, just with all workers drained.

// PanicError reports a panic recovered from a parallel worker. It is the
// payload re-raised by the par loops and returned (as an error) by the
// scheduler and algorithm entry points with an error result.
type PanicError struct {
	// Value is the value originally passed to panic.
	Value any
	// Item is the work-item index (or chunk start) the worker was
	// processing, -1 when unknown.
	Item int
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

// Error formats the panic with its origin; the full stack is in Stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker panic on item %d: %v", e.Item, e.Value)
}

// Unwrap exposes a panic value that was itself an error, so errors.Is/As
// reach through (e.g. a panicked context error).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// AsPanicError wraps a recovered value into a *PanicError. A value that
// already is one (a panic crossing a second runtime layer) is passed
// through unchanged, keeping the original stack and item.
func AsPanicError(r any, item int) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Item: item, Stack: debug.Stack()}
}

// PanicBox collects the first panic of a parallel region. The zero value is
// ready to use; it is written by any worker and read by the region's owner
// after all workers joined.
type PanicBox struct {
	mu    sync.Mutex
	first *PanicError
	extra int // panics after the first, collapsed into the count
}

// Capture records r, the result of a recover() in a deferred function, as
// a panic on work item item. A nil r (no panic) is ignored.
func (b *PanicBox) Capture(r any, item int) {
	if r == nil {
		return
	}
	pe := AsPanicError(r, item)
	b.mu.Lock()
	if b.first == nil {
		b.first = pe
	} else {
		b.extra++
	}
	b.mu.Unlock()
}

// Reset clears the box for reuse. Call only between parallel regions, never
// while workers may still Capture.
func (b *PanicBox) Reset() {
	b.mu.Lock()
	b.first = nil
	b.extra = 0
	b.mu.Unlock()
}

// Err returns the recorded panic, nil if none. Call only after the region's
// workers have joined.
func (b *PanicBox) Err() *PanicError {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.first
}

// Count returns how many panics were captured in total.
func (b *PanicBox) Count() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.first == nil {
		return 0
	}
	return 1 + b.extra
}

// Rethrow re-raises the recorded panic on the caller, if any.
func (b *PanicBox) Rethrow() {
	if pe := b.Err(); pe != nil {
		panic(pe)
	}
}
