package obs

import (
	"strings"
	"testing"
	"time"
)

func TestHTTPMetricsPrometheus(t *testing.T) {
	m := NewHTTPMetrics()
	tid := NewTraceID()
	m.Observe("POST /solve", 200, 5*time.Millisecond, tid)
	m.Observe("POST /solve", 200, 50*time.Millisecond, tid)
	m.Observe("POST /solve", 500, 2*time.Millisecond, TraceID{})
	m.Observe("GET /healthz", 200, time.Millisecond, TraceID{})

	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`llpmst_http_requests_total{route="POST /solve",code="2xx"} 2`,
		`llpmst_http_requests_total{route="POST /solve",code="5xx"} 1`,
		`llpmst_http_request_errors_total{route="POST /solve"} 1`,
		`llpmst_http_request_duration_seconds_count{route="POST /solve"} 3`,
		`llpmst_http_request_duration_quantile_seconds{route="POST /solve",q="0.99"}`,
		`llpmst_http_request_exemplar_seconds{route="POST /solve",trace_id="` + tid.String() + `"}`,
		`llpmst_http_requests_total{route="GET /healthz",code="2xx"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q\n%s", want, out)
		}
	}

	// The exemplar is read-and-reset: a second scrape with no new traffic
	// must not repeat it.
	b.Reset()
	_ = m.WritePrometheus(&b)
	if strings.Contains(b.String(), "llpmst_http_request_exemplar_seconds") {
		t.Errorf("exemplar survived a scrape without new traffic:\n%s", b.String())
	}
}

func TestPromEscape(t *testing.T) {
	in := "a\"b\\c\nd"
	want := `a\"b\\c\nd`
	if got := PromEscape(in); got != want {
		t.Fatalf("PromEscape(%q) = %q, want %q", in, got, want)
	}
}

// Both histogram families escape a label value exactly once: a quote in a
// span name or a route must come out as \" — not as \\\" (escaped twice).
func TestPrometheusHistogramLabelEscaping(t *testing.T) {
	rec := NewFlightRecorder(1, 64)
	rec.Span(`a"b`)()
	var b strings.Builder
	if err := rec.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `llpmst_span_duration_seconds_count{span="a\"b"} 1`; !strings.Contains(b.String(), want+"\n") {
		t.Errorf("flight recorder export missing %q:\n%s", want, b.String())
	}

	m := NewHTTPMetrics()
	m.Observe(`GET /a"b`, 200, time.Millisecond, TraceID{})
	b.Reset()
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `llpmst_http_request_duration_seconds_count{route="GET /a\"b"} 1`; !strings.Contains(b.String(), want+"\n") {
		t.Errorf("RED export missing %q:\n%s", want, b.String())
	}
}
