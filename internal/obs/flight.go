package obs

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder.
//
// The paper's empirical claims are about convergence *dynamics* — how fast
// LLP-Prim's early-fixing bag drains, how many pointer-jumping sweeps each
// LLP-Boruvka contraction round needs — and reproducing those curves
// requires the individual samples, attributed to the worker and the round
// that produced them. The FlightRecorder captures exactly that: per-worker
// sharded, fixed-capacity ring buffers of typed events, written with one
// uncontended atomic claim and zero allocations, plus always-current atomic
// aggregates (counter totals, last/max gauge values, log-bucket
// span-duration histograms) that live HTTP endpoints can read while a run
// is in flight. The same recorder answers "what were the totals" (Counter,
// GaugeMax, SpanSummaries, WriteTimeline).
//
// Overflow policy: each shard's ring holds the most recent EventCap events;
// older ones are overwritten (Dropped reports how many). Aggregates are
// exact regardless of overflow — only the event-by-event replay is bounded.
// The one exception is a span opened while all of its cursor's span slots
// are held: it is refused outright and counted in Dropped.

// EventKind discriminates the typed events in a shard's ring.
type EventKind uint8

// The event kinds.
const (
	// EvCount is a counter delta: ID is the Counter, Value the delta.
	EvCount EventKind = iota + 1
	// EvGauge is a gauge sample: ID is the Gauge, Value the sample.
	EvGauge
	// EvSpanBegin opens a span: ID is the interned span name.
	EvSpanBegin
	// EvSpanEnd closes a span: ID is the interned span name, Value the
	// duration in nanoseconds.
	EvSpanEnd
	// EvRound is a round marker: Value is the round number (see MarkRound).
	EvRound
)

// Event is one recorded telemetry sample, as Events returns it.
type Event struct {
	// TS is the event time in nanoseconds since the recorder's origin.
	TS int64
	// Value is the kind-specific payload (delta, sample, duration, round).
	Value int64
	// Seq is the per-shard monotone sequence number of the event.
	Seq uint64
	// Round is the round number current when the event was recorded.
	Round int32
	// Worker is the worker the event is attributed to (-1 for the driver).
	Worker int16
	// Kind discriminates the payload.
	Kind EventKind
	// ID is the Counter, Gauge, or interned span name, per Kind.
	ID uint8
}

// DefaultEventCap is the per-shard ring capacity when NewFlightRecorder is
// given eventCap <= 0: 16384 events * 32 bytes = 512 KiB per worker shard.
const DefaultEventCap = 1 << 14

// maxSpanNames bounds the span-name intern table; name 63 is the shared
// overflow bucket, so a runaway caller degrades to coarse attribution
// instead of growing without bound.
const maxSpanNames = 64

// histBuckets is the number of log2(ns) duration buckets: bucket i counts
// durations d with bits.Len64(d) == i, i.e. d in [2^(i-1), 2^i). Bucket 47
// (~1.6 days) absorbs everything longer.
const histBuckets = 48

// shard is one worker's event ring plus its always-current aggregates.
// Only hot fields live near the claim cursor; the trailing pad keeps
// adjacent shards' cursors and counter cells off each other's cache lines.
type shard struct {
	head atomic.Uint64 // total events ever claimed; ring slot = seq & mask
	_    [56]byte      // the claim cursor gets a cache line to itself

	buf    []slot
	mask   uint64
	worker int16

	counters  [NumCounters]atomic.Int64
	gaugeLast [NumGauges]atomic.Int64
	gaugeMax  [NumGauges]atomic.Int64
	gaugeTS   [NumGauges]atomic.Int64 // TS of the last sample (0 = never)
	hists     [maxSpanNames]spanHist  // span durations, by interned name

	_ [64]byte // isolate this shard's aggregates from the next shard's head
}

// slot is one ring entry: 32 bytes, so a ring write stays within one or
// two cache lines. Its words are atomics, so a writer lapped by a
// whole ring and a reader snapshotting mid-run never race a writer. seq is
// the seqlock word: the event's sequence number + 1 once the slot is fully
// written (0 before the first write), slotBusy while a writer fills it.
type slot struct {
	seq   atomic.Uint64
	ts    atomic.Int64
	value atomic.Int64
	meta  atomic.Uint64 // round<<16 | kind<<8 | id
}

// slotBusy marks a slot a writer has claimed but not yet filled.
const slotBusy = ^uint64(0)

// spanHist is a log-bucket duration histogram. The flight recorder keeps
// one per span name in every shard, so workers closing spans never write
// each other's cache lines; readers sum the shards.
type spanHist struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func (h *spanHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.sumNS.Add(ns)
	h.count.Add(1)
}

// add folds o's current counts into h.
func (h *spanHist) add(o *spanHist) {
	h.count.Add(o.count.Load())
	h.sumNS.Add(o.sumNS.Load())
	for b := range h.buckets {
		h.buckets[b].Add(o.buckets[b].Load())
	}
}

// quantile returns the upper bound (2^bucket nanoseconds) of the bucket
// containing the q-th quantile, 0 when the histogram is empty.
func (h *spanHist) quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	want := int64(q * float64(total))
	if want < 1 {
		want = 1
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum >= want {
			if b >= 63 {
				return time.Duration(int64(^uint64(0) >> 1))
			}
			return time.Duration(int64(1) << uint(b))
		}
	}
	return time.Duration(int64(1) << (histBuckets - 1))
}

// nameTable interns span names to small ids. The id map is copy-on-write:
// lookups of known names are one atomic load and a map read, with no
// shared-memory writes; the first sighting of a new name takes the mutex
// once and publishes a new map. Names beyond maxSpanNames-1 share the
// overflow id.
type nameTable struct {
	mu    sync.Mutex // serializes inserts
	ids   atomic.Pointer[map[string]uint8]
	n     atomic.Int32 // names[:n] are interned and never change
	names [maxSpanNames - 1]string
}

func (t *nameTable) id(name string) uint8 {
	if m := t.ids.Load(); m != nil {
		if id, ok := (*m)[name]; ok {
			return id
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var old map[string]uint8
	if m := t.ids.Load(); m != nil {
		old = *m
	}
	if id, ok := old[name]; ok {
		return id
	}
	n := int(t.n.Load())
	if n >= len(t.names) {
		return maxSpanNames - 1 // shared overflow bucket
	}
	next := make(map[string]uint8, n+1)
	for k, v := range old {
		next[k] = v
	}
	t.names[n] = name
	next[name] = uint8(n)
	t.n.Store(int32(n + 1))
	t.ids.Store(&next)
	return uint8(n)
}

// name returns the interned name for id ("~overflow" for the shared
// overflow bucket, which has no single name).
func (t *nameTable) name(id uint8) string {
	if id == maxSpanNames-1 {
		return "~overflow"
	}
	if int32(id) < t.n.Load() {
		return t.names[id]
	}
	return "~unknown"
}

// snapshot returns the interned names, indexed by id. The slice aliases the
// table, whose published entries never change.
func (t *nameTable) snapshot() []string { return t.names[:t.n.Load()] }

// spanSlots is how many spans one cursor can hold open at once. A Span call
// that finds every slot busy is dropped: it returns a no-op closer and is
// counted in Dropped.
const spanSlots = 64

// spanSlot is one open span: its start time, its interned name, and the
// closer that ends it. The closer is built on the slot's first claim and
// reused by every later span in the slot.
type spanSlot struct {
	start int64
	id    uint8
	end   func()
}

// Cursor is one worker's attributed view of a FlightRecorder: a Collector
// whose events carry that worker's id. Every method is safe for concurrent
// use from any number of goroutines: ring slots are claimed with an atomic
// add, and each open span holds one of the cursor's spanSlots span slots,
// claimed and released through an atomic bitmap.
type Cursor struct {
	rec *FlightRecorder
	s   *shard

	// free has bit i set while slots[i] holds no open span.
	free  atomic.Uint64
	slots [spanSlots]spanSlot
}

// Span implements Tracer: it records an EvSpanBegin now and an EvSpanEnd
// (carrying the duration, which also feeds the span's log-bucket histogram)
// when the returned closer runs. The span holds the lowest free slot until
// then, so the closer must run exactly once. Once every slot has been used,
// Span allocates nothing.
func (c *Cursor) Span(name string) func() {
	id := c.rec.names.id(name)
	for {
		free := c.free.Load()
		if free == 0 {
			c.rec.spansDropped.Add(1)
			return nopEnd
		}
		i := bits.TrailingZeros64(free)
		if !c.free.CompareAndSwap(free, free&^(1<<i)) {
			continue
		}
		sl := &c.slots[i]
		if sl.end == nil {
			sl.end = c.closer(sl, 1<<i)
		}
		sl.id = id
		sl.start = c.rec.now()
		c.rec.record(c.s, sl.start, EvSpanBegin, id, 0)
		return sl.end
	}
}

// closer builds the end closure of slot sl, whose bit in c.free is bit.
func (c *Cursor) closer(sl *spanSlot, bit uint64) func() {
	return func() {
		id, now := sl.id, c.rec.now()
		dur := now - sl.start
		c.s.hists[id].observe(dur)
		c.rec.record(c.s, now, EvSpanEnd, id, dur)
		for {
			free := c.free.Load()
			if c.free.CompareAndSwap(free, free|bit) {
				return
			}
		}
	}
}

// Count implements Collector: the delta lands in the shard's running total
// and in the ring as an EvCount event.
func (c *Cursor) Count(ctr Counter, delta int64) {
	c.s.counters[ctr].Add(delta)
	c.rec.record(c.s, c.rec.now(), EvCount, uint8(ctr), delta)
}

// Gauge implements Collector, retaining both the last and the maximum
// sample and appending an EvGauge event.
func (c *Cursor) Gauge(g Gauge, v int64) {
	s, now := c.s, c.rec.now()
	s.gaugeLast[g].Store(v)
	s.gaugeTS[g].Store(now + 1) // +1 so TS 0 still reads as "seen"
	for {
		cur := s.gaugeMax[g].Load()
		if v <= cur || s.gaugeMax[g].CompareAndSwap(cur, v) {
			break
		}
	}
	c.rec.record(s, now, EvGauge, uint8(g), v)
}

// Round implements RoundMarker: it advances the recorder's current round
// (attributed to subsequent events from every worker) and drops an EvRound
// marker on this cursor's track.
func (c *Cursor) Round(r int64) {
	c.rec.round.Store(r)
	c.rec.record(c.s, c.rec.now(), EvRound, 0, r)
}

// FlightRecorder is the sharded, ring-buffered Collector. Construct with
// NewFlightRecorder; the zero value is not usable. The recorder itself
// implements Collector (events attributed to the driver track, worker -1),
// RoundMarker, and WorkerAttributor — pass it as Options.Observer or carry
// it on a context and the runtime's ForWorker calls pick up per-worker
// attribution automatically.
type FlightRecorder struct {
	origin  time.Time
	round   atomic.Int64
	shards  []shard  // shards[0] = driver, shards[1..] = workers
	cursors []Cursor // parallel to shards
	names   nameTable

	spansDropped atomic.Uint64 // spans refused because every slot was busy
}

// NewFlightRecorder returns a recorder with one driver shard plus workers
// worker shards (GOMAXPROCS when workers <= 0; worker ids are folded modulo
// the shard count, so any id is accepted). eventCap is the per-shard ring
// capacity, rounded up to a power of two (DefaultEventCap when <= 0).
func NewFlightRecorder(workers, eventCap int) *FlightRecorder {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	capPow := 1
	for capPow < eventCap {
		capPow <<= 1
	}
	r := &FlightRecorder{
		origin: time.Now(),
		shards: make([]shard, workers+1),
	}
	r.cursors = make([]Cursor, workers+1)
	for i := range r.shards {
		s := &r.shards[i]
		s.buf = make([]slot, capPow)
		s.mask = uint64(capPow - 1)
		s.worker = int16(i - 1) // shard 0 is the driver, worker -1
		c := &r.cursors[i]
		c.rec, c.s = r, s
		c.free.Store(^uint64(0))
	}
	return r
}

// now is the event clock: nanoseconds since the recorder's origin.
func (r *FlightRecorder) now() int64 { return int64(time.Since(r.origin)) }

// record claims the next sequence number with one uncontended atomic add
// and fills its ring slot in place, stamped ts — no allocation, no lock, no
// shared cache line with other shards. Callers pass the time so an event
// shares one clock read with the aggregate it updates: a span's end event
// minus its duration is exactly its begin event's time.
//
// The slot is claimed with a CAS on its seqlock word, so two writers never
// fill it at once. A writer that finds the slot busy, or already holding a
// later event (both only after a lap of the whole ring), drops its event:
// the ring keeps the newest events it can, and Dropped counts every event
// older than one ring.
func (r *FlightRecorder) record(s *shard, ts int64, k EventKind, id uint8, v int64) {
	seq := s.head.Add(1) - 1
	sl := &s.buf[seq&s.mask]
	old := sl.seq.Load()
	if old == slotBusy || old > seq || !sl.seq.CompareAndSwap(old, slotBusy) {
		return
	}
	sl.ts.Store(ts)
	sl.value.Store(v)
	sl.meta.Store(uint64(uint32(r.round.Load()))<<16 | uint64(k)<<8 | uint64(id))
	sl.seq.Store(seq + 1)
}

// Worker implements WorkerAttributor: it returns the cursor whose events
// are attributed to worker w (w < 0 selects the driver track). Cursors are
// preallocated, so this is an index, not an allocation.
func (r *FlightRecorder) Worker(w int) Collector {
	if w < 0 {
		return &r.cursors[0]
	}
	return &r.cursors[1+w%(len(r.cursors)-1)]
}

// driver is the cursor behind the recorder's own Collector facade.
func (r *FlightRecorder) driver() *Cursor { return &r.cursors[0] }

// Span implements Tracer on the driver track (safe for concurrent use; see
// Cursor.Span).
func (r *FlightRecorder) Span(name string) func() { return r.driver().Span(name) }

// Count implements Collector on the driver track (safe for concurrent use).
func (r *FlightRecorder) Count(c Counter, delta int64) { r.driver().Count(c, delta) }

// Gauge implements Collector on the driver track (safe for concurrent use).
func (r *FlightRecorder) Gauge(g Gauge, v int64) { r.driver().Gauge(g, v) }

// Round implements RoundMarker on the driver track.
func (r *FlightRecorder) Round(rn int64) { r.driver().Round(rn) }

// CurrentRound returns the most recently marked round number.
func (r *FlightRecorder) CurrentRound() int64 { return r.round.Load() }

// Counter returns the accumulated total for c across all shards.
func (r *FlightRecorder) Counter(c Counter) int64 {
	var t int64
	for i := range r.shards {
		t += r.shards[i].counters[c].Load()
	}
	return t
}

// CounterWorker returns worker w's share of counter c (w < 0: the driver).
func (r *FlightRecorder) CounterWorker(c Counter, w int) int64 {
	i := 0
	if w >= 0 {
		i = 1 + w%(len(r.cursors)-1)
	}
	return r.shards[i].counters[c].Load()
}

// GaugeMax returns the maximum sample of g across all shards (0 if never
// sampled).
func (r *FlightRecorder) GaugeMax(g Gauge) int64 {
	var m int64
	for i := range r.shards {
		if v := r.shards[i].gaugeMax[g].Load(); v > m {
			m = v
		}
	}
	return m
}

// GaugeLast returns the most recent sample of g across all shards and
// whether g was ever sampled.
func (r *FlightRecorder) GaugeLast(g Gauge) (int64, bool) {
	var v, best int64
	seen := false
	for i := range r.shards {
		ts := r.shards[i].gaugeTS[g].Load()
		if ts > best {
			best = ts
			v = r.shards[i].gaugeLast[g].Load()
			seen = true
		}
	}
	return v, seen
}

// Recorded returns the total number of events ever recorded.
func (r *FlightRecorder) Recorded() uint64 {
	var t uint64
	for i := range r.shards {
		t += r.shards[i].head.Load()
	}
	return t
}

// Dropped returns the number of recorded events no longer in the rings
// (overwritten by wrap-around) plus the spans refused because all of a
// cursor's span slots were open.
func (r *FlightRecorder) Dropped() uint64 {
	t := r.spansDropped.Load()
	for i := range r.shards {
		s := &r.shards[i]
		if h := s.head.Load(); h > uint64(len(s.buf)) {
			t += h - uint64(len(s.buf))
		}
	}
	return t
}

// Events returns a merged snapshot of every shard's surviving events,
// sorted by timestamp (sequence number breaking ties within a shard).
// In-flight slots — claimed but not yet fully written, or rewritten while
// being read — fail the seqlock check and are skipped, so a snapshot taken
// mid-run is a consistent sample; for exact replay, snapshot after the run
// has joined.
func (r *FlightRecorder) Events() []Event {
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		head := s.head.Load()
		n := uint64(len(s.buf))
		lo := uint64(0)
		if head > n {
			lo = head - n
		}
		for seq := lo; seq < head; seq++ {
			sl := &s.buf[seq&s.mask]
			if sl.seq.Load() != seq+1 {
				continue
			}
			meta := sl.meta.Load()
			e := Event{
				TS:     sl.ts.Load(),
				Value:  sl.value.Load(),
				Seq:    seq,
				Round:  int32(uint32(meta >> 16)),
				Worker: s.worker,
				Kind:   EventKind(meta >> 8),
				ID:     uint8(meta),
			}
			if sl.seq.Load() == seq+1 {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// SpanName returns the interned span name behind an EvSpanBegin/EvSpanEnd
// event's ID.
func (r *FlightRecorder) SpanName(id uint8) string { return r.names.name(id) }

// SpanSummary is the latency digest of one span name: how many times it
// closed, total time inside it, and log-bucket quantiles.
type SpanSummary struct {
	Name          string
	Count         int64
	Sum           time.Duration
	P50, P95, P99 time.Duration
}

// SpanSummary returns the digest for one span name and whether that span
// ever closed.
func (r *FlightRecorder) SpanSummary(name string) (SpanSummary, bool) {
	for id, n := range r.names.snapshot() {
		if n == name {
			return r.summarize(uint8(id), name)
		}
	}
	return SpanSummary{Name: name}, false
}

// SpanSummaries returns digests for every span name that closed at least
// once, sorted by name.
func (r *FlightRecorder) SpanSummaries() []SpanSummary {
	var out []SpanSummary
	add := func(id uint8, name string) {
		if s, ok := r.summarize(id, name); ok {
			out = append(out, s)
		}
	}
	for id, n := range r.names.snapshot() {
		add(uint8(id), n)
	}
	add(maxSpanNames-1, "~overflow")
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// summarize digests span id's histogram; ok reports whether it closed.
func (r *FlightRecorder) summarize(id uint8, name string) (s SpanSummary, ok bool) {
	h := r.hist(id)
	return SpanSummary{
		Name:  name,
		Count: h.count.Load(),
		Sum:   time.Duration(h.sumNS.Load()),
		P50:   h.quantile(0.50),
		P95:   h.quantile(0.95),
		P99:   h.quantile(0.99),
	}, h.count.Load() > 0
}

// hist returns span id's duration histogram summed over every shard.
func (r *FlightRecorder) hist(id uint8) *spanHist {
	h := new(spanHist)
	for i := range r.shards {
		h.add(&r.shards[i].hists[id])
	}
	return h
}

// RoundStats aggregates one round segment of the event stream: the counter
// deltas and final gauge samples between two consecutive round markers.
type RoundStats struct {
	// Round is the number the segment's opening marker carried.
	Round int64
	// Start and End bound the segment on the recorder's timeline.
	Start, End time.Duration
	// Counters holds the summed counter deltas recorded in the segment.
	Counters [NumCounters]int64
	// Gauges holds each gauge's last sample in the segment; GaugeSeen says
	// whether the gauge was sampled at all (Gauges is 0 otherwise).
	Gauges    [NumGauges]int64
	GaugeSeen [NumGauges]bool
}

// Counter returns the segment's delta for c.
func (rs *RoundStats) Counter(c Counter) int64 { return rs.Counters[c] }

// Gauge returns the segment's last sample of g and whether g was sampled.
func (rs *RoundStats) Gauge(g Gauge) (int64, bool) { return rs.Gauges[g], rs.GaugeSeen[g] }

// RoundSeries converts the surviving event stream into per-round segments:
// the stream is walked in time order and cut at every round marker
// (MarkRound), so successive algorithm runs that restart their round
// numbering yield successive segments rather than merged rounds. A leading
// segment before the first marker is included only when it recorded
// counters or gauges. This is the view behind the convergence curves:
// live edges per Boruvka round, jump advances per sweep, early-fix vs
// heap-pop mix per LLP-Prim wave.
func (r *FlightRecorder) RoundSeries() []RoundStats {
	events := r.Events()
	var out []RoundStats
	var cur *RoundStats
	content := false // current segment recorded at least one count/gauge
	open := func(round int64, ts int64) {
		out = append(out, RoundStats{Round: round, Start: time.Duration(ts), End: time.Duration(ts)})
		cur = &out[len(out)-1]
		content = false
	}
	for _, e := range events {
		if e.Kind == EvRound {
			if cur != nil && !content && cur.Round == 0 && len(out) == 1 {
				out = out[:0] // drop the empty pre-round prologue
			}
			open(e.Value, e.TS)
			continue
		}
		if cur == nil {
			open(0, e.TS)
		}
		if time.Duration(e.TS) > cur.End {
			cur.End = time.Duration(e.TS)
		}
		switch e.Kind {
		case EvCount:
			cur.Counters[e.ID] += e.Value
			content = true
		case EvGauge:
			cur.Gauges[e.ID] = e.Value
			cur.GaugeSeen[e.ID] = true
			content = true
		}
	}
	if cur != nil && !content && cur.Round == 0 && len(out) == 1 {
		out = out[:0]
	}
	return out
}
