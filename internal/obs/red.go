// red.go: per-route RED metrics (Rate, Errors, Duration) for the HTTP
// serving layer, with exemplar trace IDs linking the slowest observation per
// route back to the trace store.
//
// One routeMetrics per registered route pattern; the route set is fixed at
// mux construction so the map is effectively read-only after warmup and
// observations touch only atomics (plus the exemplar mutex, uncontended in
// practice). Latency reuses the flight recorder's log-2-bucket spanHist and
// its Prometheus writer, so the histograms and p50/p95/p99 digests on
// /metrics are computed and printed the same way as the algorithm spans'.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PromEscape escapes a Prometheus label value per the text exposition
// format: backslash, double quote, and newline. Any user-controlled string
// (graph IDs, stream IDs, routes) must pass through it before being
// interpolated into a label.
func PromEscape(s string) string { return promEscape(s) }

// HTTPMetrics aggregates per-route RED series. Safe for concurrent use.
type HTTPMetrics struct {
	mu     sync.RWMutex
	routes map[string]*routeMetrics
}

type routeMetrics struct {
	route   string
	byClass [6]atomic.Int64 // status/100: index 1..5, 0 = unknown
	hist    spanHist

	// Exemplar: the slowest observation since the last export that carried
	// a trace ID, so dashboards can jump from a latency spike to the exact
	// trace. Reset on WritePrometheus.
	exMu  sync.Mutex
	exID  TraceID
	exNS  int64
	exSet bool
}

// NewHTTPMetrics returns an empty registry of per-route series.
func NewHTTPMetrics() *HTTPMetrics {
	return &HTTPMetrics{routes: make(map[string]*routeMetrics)}
}

func (m *HTTPMetrics) route(pattern string) *routeMetrics {
	m.mu.RLock()
	r := m.routes[pattern]
	m.mu.RUnlock()
	if r != nil {
		return r
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r = m.routes[pattern]; r == nil {
		r = &routeMetrics{route: pattern}
		m.routes[pattern] = r
	}
	return r
}

// Observe records one served request. tid may be the zero TraceID when the
// request was not traced (slot exhaustion); it is then skipped for exemplar
// purposes.
func (m *HTTPMetrics) Observe(pattern string, status int, d time.Duration, tid TraceID) {
	r := m.route(pattern)
	class := status / 100
	if class < 1 || class > 5 {
		class = 0
	}
	r.byClass[class].Add(1)
	ns := int64(d)
	r.hist.observe(ns)
	if !tid.IsZero() {
		r.exMu.Lock()
		if !r.exSet || ns > r.exNS {
			r.exID, r.exNS, r.exSet = tid, ns, true
		}
		r.exMu.Unlock()
	}
}

// WritePrometheus appends the RED series in text exposition format 0.0.4:
//
//	llpmst_http_requests_total{route,code}            counter per status class
//	llpmst_http_request_errors_total{route}           counter (5xx)
//	llpmst_http_request_duration_seconds{route}       log-2 bucket histogram
//	llpmst_http_request_duration_quantile_seconds{route,q}  p50/p95/p99 digest
//	llpmst_http_request_exemplar_seconds{route,trace_id}    slowest-recent trace
//
// The exemplar is emitted as its own series (not an OpenMetrics inline
// exemplar) because /metrics advertises the 0.0.4 content type, whose
// parsers reject the "# {...}" exemplar syntax. Reading an exemplar resets
// it, so each scrape sees the slowest trace of its own interval.
func (m *HTTPMetrics) WritePrometheus(w io.Writer) error {
	m.mu.RLock()
	routes := make([]*routeMetrics, 0, len(m.routes))
	for _, r := range m.routes {
		routes = append(routes, r)
	}
	m.mu.RUnlock()
	// Deterministic output order.
	for i := 1; i < len(routes); i++ {
		for j := i; j > 0 && routes[j-1].route > routes[j].route; j-- {
			routes[j-1], routes[j] = routes[j], routes[j-1]
		}
	}

	var b strings.Builder
	b.WriteString("# HELP llpmst_http_requests_total Requests served per route and status class.\n")
	b.WriteString("# TYPE llpmst_http_requests_total counter\n")
	for _, r := range routes {
		label := promEscape(r.route)
		for class := 1; class <= 5; class++ {
			if v := r.byClass[class].Load(); v != 0 {
				fmt.Fprintf(&b, "llpmst_http_requests_total{route=\"%s\",code=\"%dxx\"} %d\n",
					label, class, v)
			}
		}
	}

	b.WriteString("# HELP llpmst_http_request_errors_total Requests that ended in a 5xx per route.\n")
	b.WriteString("# TYPE llpmst_http_request_errors_total counter\n")
	for _, r := range routes {
		fmt.Fprintf(&b, "llpmst_http_request_errors_total{route=\"%s\"} %d\n",
			promEscape(r.route), r.byClass[5].Load())
	}

	b.WriteString("# HELP llpmst_http_request_duration_seconds Request latency histogram (log-2 nanosecond buckets).\n")
	b.WriteString("# TYPE llpmst_http_request_duration_seconds histogram\n")
	for _, r := range routes {
		r.hist.writeProm(&b, "llpmst_http_request_duration_seconds", "route", r.route)
	}

	b.WriteString("# HELP llpmst_http_request_duration_quantile_seconds Log-2 bucket upper bound containing the quantile.\n")
	b.WriteString("# TYPE llpmst_http_request_duration_quantile_seconds gauge\n")
	for _, r := range routes {
		if r.hist.count.Load() == 0 {
			continue
		}
		label := promEscape(r.route)
		for _, q := range [...]float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(&b, "llpmst_http_request_duration_quantile_seconds{route=\"%s\",q=\"%g\"} %g\n",
				label, q, float64(r.hist.quantile(q))/1e9)
		}
	}

	// The exemplar family (and its header) appears only when a scrape
	// interval actually saw a traced request: exemplars are read-and-reset.
	wroteExemplarHeader := false
	for _, r := range routes {
		r.exMu.Lock()
		id, ns, set := r.exID, r.exNS, r.exSet
		r.exSet = false
		r.exMu.Unlock()
		if !set {
			continue
		}
		if !wroteExemplarHeader {
			b.WriteString("# HELP llpmst_http_request_exemplar_seconds Slowest traced request since the last scrape, labeled with its trace ID.\n")
			b.WriteString("# TYPE llpmst_http_request_exemplar_seconds gauge\n")
			wroteExemplarHeader = true
		}
		fmt.Fprintf(&b, "llpmst_http_request_exemplar_seconds{route=\"%s\",trace_id=\"%s\"} %g\n",
			promEscape(r.route), id.String(), float64(ns)/1e9)
	}

	_, err := io.WriteString(w, b.String())
	return err
}
