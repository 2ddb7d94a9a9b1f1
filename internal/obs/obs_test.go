package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// The load-bearing property: instrumenting a hot path against the no-op
// collector adds zero allocations. Algorithms call through the Collector
// interface unconditionally, so this is what keeps tracing free when off.
func TestNopZeroAllocs(t *testing.T) {
	var col Collector = Nop{}
	allocs := testing.AllocsPerRun(1000, func() {
		end := col.Span("phase")
		col.Count(CtrSchedPush, 1)
		col.Count(CtrRounds, 3)
		col.Gauge(GaugeQueueDepth, 17)
		end()
	})
	if allocs != 0 {
		t.Fatalf("no-op collector hot path allocates: %v allocs/op", allocs)
	}
}

func TestOr(t *testing.T) {
	if _, ok := Or(nil).(Nop); !ok {
		t.Fatal("Or(nil) is not Nop")
	}
	rec := NewFlightRecorder(1, 64)
	if Or(rec) != rec {
		t.Fatal("Or(non-nil) did not pass through")
	}
}

// The driver facade is one shared cursor: concurrent counts must all land
// and the gauge maximum must be the largest sample from any goroutine.
func TestFlightRecorderCountersAndGauges(t *testing.T) {
	rec := NewFlightRecorder(1, 1<<12) // no wrap: concurrent writers never share a ring slot
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.Count(CtrSchedPush, 2)
				rec.Gauge(GaugeQueueDepth, int64(w*100+i))
			}
		}(w)
	}
	wg.Wait()
	if got := rec.Counter(CtrSchedPush); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := rec.GaugeMax(GaugeQueueDepth); got != 799 {
		t.Fatalf("gauge max = %d, want 799", got)
	}
	if got := rec.Counter(CtrSchedPop); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
}

func TestFlightRecorderTimeline(t *testing.T) {
	rec := NewFlightRecorder(1, 64)
	end := rec.Span("outer")
	inner := rec.Span("inner")
	time.Sleep(time.Millisecond)
	inner()
	end()
	rec.Count(CtrRounds, 4)
	rec.Gauge(GaugeLiveEdges, 123)

	var buf bytes.Buffer
	if err := rec.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Spans []struct {
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			DurUS   float64 `json:"dur_us"`
		} `json:"spans"`
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges_max"`
		Dropped  *uint64          `json:"dropped_events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("timeline is not valid JSON: %v\n%s", err, buf.String())
	}
	// Timeline order: sorted by start offset, so outer comes first even
	// though inner closed first.
	if len(decoded.Spans) != 2 || decoded.Spans[0].Name != "outer" || decoded.Spans[1].Name != "inner" {
		t.Fatalf("timeline spans: %+v", decoded.Spans)
	}
	if in := decoded.Spans[1]; in.DurUS < 1000 || in.StartUS < decoded.Spans[0].StartUS {
		t.Fatalf("inner span %+v not inside outer %+v", in, decoded.Spans[0])
	}
	if decoded.Counters["rounds"] != 4 {
		t.Fatalf("timeline counters: %+v", decoded.Counters)
	}
	if decoded.Gauges["live_edges"] != 123 {
		t.Fatalf("timeline gauges: %+v", decoded.Gauges)
	}
	if decoded.Dropped == nil || *decoded.Dropped != 0 {
		t.Fatalf("timeline dropped_events = %v, want 0", decoded.Dropped)
	}

	// A wrapped ring keeps only the newest spans and says how many events
	// it lost.
	small := NewFlightRecorder(1, 4)
	for i := 0; i < 5; i++ {
		small.Span("wrap")()
	}
	buf.Reset()
	if err := small.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Spans) != 2 || *decoded.Dropped != 6 {
		t.Fatalf("wrapped timeline: %d spans, %d dropped; want 2 and 6", len(decoded.Spans), *decoded.Dropped)
	}
}

func TestContextCarriesCollector(t *testing.T) {
	if _, ok := FromContext(nil).(Nop); !ok {
		t.Fatal("FromContext(nil) is not Nop")
	}
	if _, ok := FromContext(context.Background()).(Nop); !ok {
		t.Fatal("FromContext(plain ctx) is not Nop")
	}
	rec := NewFlightRecorder(1, 64)
	ctx := NewContext(context.Background(), rec)
	if FromContext(ctx) != rec {
		t.Fatal("collector did not round-trip through context")
	}
}

// TestEnumNames is the exhaustiveness gate for the counter/gauge enums: a
// newly added value must get a name (else it silently prints "counter(?)"
// in every report) and must not reuse an existing one (else two series
// merge in Prometheus/CSV output).
func TestEnumNames(t *testing.T) {
	ctrNames := make(map[string]Counter, NumCounters)
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "counter(?)" {
			t.Fatalf("counter %d has no name", c)
		}
		if prev, dup := ctrNames[name]; dup {
			t.Fatalf("counters %d and %d share the name %q", prev, c, name)
		}
		ctrNames[name] = c
	}
	if NumCounters.String() != "counter(?)" {
		t.Fatalf("NumCounters is not a real counter but stringifies to %q", NumCounters.String())
	}
	gaugeNames := make(map[string]Gauge, NumGauges)
	for g := Gauge(0); g < NumGauges; g++ {
		name := g.String()
		if name == "gauge(?)" {
			t.Fatalf("gauge %d has no name", g)
		}
		if prev, dup := gaugeNames[name]; dup {
			t.Fatalf("gauges %d and %d share the name %q", prev, g, name)
		}
		gaugeNames[name] = g
	}
	if NumGauges.String() != "gauge(?)" {
		t.Fatalf("NumGauges is not a real gauge but stringifies to %q", NumGauges.String())
	}
}

// panicSpans panics in Span (open) or in the closer it returns (!open).
type panicSpans struct {
	Nop
	open bool
}

func (p panicSpans) Span(string) func() {
	if p.open {
		panic("span")
	}
	return func() { panic("end") }
}

// TestTeeSpanPanicKeepsRecorderSlots: a panic on one side of a Tee, when the
// span opens or when it ends, must still end the recorder's span, or each
// such panic would hold one of the cursor's span slots for good.
func TestTeeSpanPanicKeepsRecorderSlots(t *testing.T) {
	rec := NewFlightRecorder(1, 1<<10)
	try := func(f func()) {
		defer func() { _ = recover() }()
		f()
	}
	for i := 0; i < 2*spanSlots; i++ {
		try(func() { Tee(rec, panicSpans{open: true}).Span("a") })
		try(func() { Tee(panicSpans{}, rec).Span("b")() })
	}
	if s, _ := rec.SpanSummary("b"); s.Count != 2*spanSlots {
		t.Fatalf("%d of %d spans ended on the recorder", s.Count, 2*spanSlots)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("%d spans dropped: slots leaked", rec.Dropped())
	}
}
