package stream

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"llpmst/internal/obs"
)

// TestWALCloseStopsTickerAndFlushes is the interval-sync lifecycle
// regression: Close must stop the ticker goroutine (no leak) and the
// final flush must cover records appended after the last tick — here the
// interval is so long the ticker never fires at all, so the record's only
// fsync is the one Close performs.
func TestWALCloseStopsTickerAndFlushes(t *testing.T) {
	before := runtime.NumGoroutine()
	rec := obs.NewFlightRecorder(0, 0)
	path := filepath.Join(t.TempDir(), walFile)
	w, err := openWAL(path, SyncInterval, time.Hour, rec)
	if err != nil {
		t.Fatal(err)
	}
	b := Batch{ID: 1, Ops: []Op{{U: 0, V: 1, W: 2}}}
	if err := w.Append(appendRecord(nil, b), obs.TraceRef{}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(obs.CtrWALFsync); got != 0 {
		t.Fatalf("fsync before the first tick or Close: %d", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(obs.CtrWALFsync); got != 1 {
		t.Fatalf("Close flushed %d times, want exactly 1 (the final fsync)", got)
	}
	// The flushed record must be intact on disk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, consumed, torn := decodeAll(t, data)
	if torn != nil || consumed != int64(len(data)) || len(got) != 1 || !sameBatch(got[0], b) {
		t.Fatalf("closed log decoded as %d batches (torn=%v)", len(got), torn)
	}
	// The ticker goroutine must be gone. Goroutine counts are noisy, so
	// poll briefly before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before open, %d after Close — sync ticker leaked",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Close again is a no-op, and a closed WAL refuses appends.
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Append(appendRecord(nil, b), obs.TraceRef{}); err != ErrClosed {
		t.Fatalf("append after Close = %v, want ErrClosed", err)
	}
}

// TestWALIntervalTickerFlushes proves the other half of the lifecycle:
// with a short interval, the background ticker itself makes a dirty log
// durable without any explicit Sync.
func TestWALIntervalTickerFlushes(t *testing.T) {
	rec := obs.NewFlightRecorder(0, 0)
	path := filepath.Join(t.TempDir(), walFile)
	w, err := openWAL(path, SyncInterval, time.Millisecond, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(appendRecord(nil, Batch{ID: 1, Ops: []Op{{U: 0, V: 1, W: 2}}}), obs.TraceRef{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for rec.Counter(obs.CtrWALFsync) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval ticker never flushed a dirty log")
		}
		time.Sleep(time.Millisecond)
	}
}
