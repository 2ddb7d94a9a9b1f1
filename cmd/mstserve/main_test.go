package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"llpmst/internal/fault"
	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/resilient"
)

func testServer(t *testing.T, mutate func(*serverConfig)) *server {
	t.Helper()
	cfg := serverConfig{
		workers:     2,
		deadline:    10 * time.Second,
		maxDeadline: 30 * time.Second,
		maxBody:     64 << 20,
		logW:        io.Discard, // request log is asserted via a buffer where a test cares
		resilient:   resilient.Config{Workers: 2, VerifyRate: 1},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := newServer(cfg)
	// Run stream recovery synchronously so handlers are ready immediately;
	// the recovering-window test builds its server without this.
	srv.streams.recoverAll(t.Logf)
	return srv
}

func postGraph(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestSolveDIMACSAndBinary(t *testing.T) {
	g := gen.ErdosRenyi(1, 200, 800, gen.WeightUniform, 3)
	oracle := mst.Kruskal(g)

	var dimacs, bin bytes.Buffer
	if err := graph.WriteDIMACS(&dimacs, g); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}

	h := testServer(t, nil).handler()
	for name, body := range map[string][]byte{"dimacs": dimacs.Bytes(), "binary": bin.Bytes()} {
		rec := postGraph(t, h, "/solve?edges=1", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
		var reply solveReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("%s: bad json: %v", name, err)
		}
		if reply.Vertices != g.NumVertices() || reply.Edges != g.NumEdges() {
			t.Fatalf("%s: echoed wrong graph size: %+v", name, reply)
		}
		if reply.ForestEdges != len(oracle.EdgeIDs) || reply.Weight != oracle.Weight {
			t.Fatalf("%s: forest differs from oracle: %+v", name, reply)
		}
		if len(reply.EdgeIDs) != len(oracle.EdgeIDs) {
			t.Fatalf("%s: ?edges=1 returned %d ids, want %d", name, len(reply.EdgeIDs), len(oracle.EdgeIDs))
		}
		// The returned ids must be verifiable: rebuild and check.
		f := mst.ForestFromEdgeIDs(g, reply.EdgeIDs)
		if err := mst.CheckForest(g, f); err != nil {
			t.Fatalf("%s: returned edge ids are unsound: %v", name, err)
		}
	}
}

func TestSolveRejectsGarbageAndWrongMethod(t *testing.T) {
	h := testServer(t, nil).handler()
	if rec := postGraph(t, h, "/solve", []byte("this is not a graph")); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", rec.Code)
	}
	if rec := postGraph(t, h, "/solve", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty body: status %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/solve", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve: status %d", rec.Code)
	}
}

func TestSolveBadDeadlineParam(t *testing.T) {
	g := gen.ErdosRenyi(1, 50, 150, gen.WeightUniform, 4)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	h := testServer(t, nil).handler()
	if rec := postGraph(t, h, "/solve?deadline=yesterday", buf.Bytes()); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad deadline: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := postGraph(t, h, "/solve?deadline=5s", buf.Bytes()); rec.Code != http.StatusOK {
		t.Fatalf("good deadline: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestHealthzFlipsWhenDraining(t *testing.T) {
	s := testServer(t, nil)
	h := s.handler()

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthy: status %d body %s", rec.Code, rec.Body.String())
	}

	s.draining.Store(true)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"status":"draining"`) {
		t.Fatalf("draining: status %d body %s", rec.Code, rec.Body.String())
	}

	// Draining also sheds new solves with a Retry-After.
	rec = postGraph(t, h, "/solve", []byte("GPLL"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("solve while draining: status %d", rec.Code)
	}
}

func TestMetricsReportBreakersAndRunnerStats(t *testing.T) {
	g := gen.ErdosRenyi(1, 100, 400, gen.WeightUniform, 5)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	s := testServer(t, nil)
	h := s.handler()
	if rec := postGraph(t, h, "/solve", buf.Bytes()); rec.Code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", rec.Code, rec.Body.String())
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"llpmst_breaker_state{algorithm=",
		"llpmst_breaker_trips_total{algorithm=",
		`llpmst_resilient_total{kind="solves"} 1`,
		"llpmst_events_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics payload missing %q:\n%s", want, body)
		}
	}
}

// The backend that answered a solve shows up in the server-wide span
// histogram: portfolio legs report their algorithm spans to the recorder
// behind /metrics.
func TestMetricsSpanHistogramHasWinningBackend(t *testing.T) {
	g := gen.ErdosRenyi(1, 300, 1200, gen.WeightUniform, 8)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	h := testServer(t, nil).handler()
	rec := postGraph(t, h, "/solve", buf.Bytes())
	if rec.Code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", rec.Code, rec.Body.String())
	}
	var reply solveReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Algorithm == "" || reply.Fallback {
		t.Fatalf("solve answered by %q (fallback %v); want a portfolio backend", reply.Algorithm, reply.Fallback)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := `llpmst_span_duration_seconds_count{span="` + reply.Algorithm + `"} `
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("metrics payload missing %q:\n%s", want, rec.Body.String())
	}
}

func TestSolveShedsUnderConcurrencyLimit(t *testing.T) {
	g := gen.ErdosRenyi(1, 50, 150, gen.WeightUniform, 6)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	s := testServer(t, func(cfg *serverConfig) {
		cfg.resilient.MaxConcurrent = 1
		// Every leg stalls ~1-2s, so the slot-holding solve below stays in
		// flight long enough for the second request to be shed.
		cfg.resilient.Chaos = &resilient.Chaos{
			Plan: fault.Plan{Seed: 1, Default: fault.Probs{Delay: 1, MaxDelay: 2}},
			Unit: time.Second,
		}
	})
	// Exhaust the single admission slot with a stalled solve, then watch
	// HTTP shed.
	release := grabSlot(t, s)
	defer release()
	rec := postGraph(t, s.handler(), "/solve", buf.Bytes())
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("want 503 when the gate is full, got %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// grabSlot occupies the runner's only admission slot with a genuine
// concurrent solve (stalled by the server's chaos config) and returns a
// func that waits for it to finish.
func grabSlot(t *testing.T, s *server) (release func()) {
	t.Helper()
	g := gen.ErdosRenyi(1, 400, 1600, gen.WeightUniform, 7)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodPost, "/solve?deadline=10s", bytes.NewReader(buf.Bytes()))
		rec := httptest.NewRecorder()
		close(started)
		s.handler().ServeHTTP(rec, req)
	}()
	<-started
	// Wait until the in-flight solve actually holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.runner.Stats().Solves > 0 {
			break
		}
		select {
		case <-done:
			return func() {}
		default:
		}
		time.Sleep(100 * time.Microsecond)
	}
	return func() { <-done }
}

// TestEveryRouteMethodMatrix pins the method-scoping behaviour for the
// whole route table: allowed methods never yield 405, every other method
// yields 405 with an Allow header — not the 404 the old mux produced.
func TestEveryRouteMethodMatrix(t *testing.T) {
	h := testServer(t, nil).handler()
	routes := []struct {
		path    string
		allowed map[string]bool
	}{
		{"/solve", map[string]bool{http.MethodPost: true}},
		{"/graphs", map[string]bool{http.MethodGet: true, http.MethodHead: true}},
		{"/graphs/some-id", map[string]bool{http.MethodPut: true, http.MethodGet: true, http.MethodHead: true, http.MethodDelete: true}},
		{"/graphs/some-id/solve", map[string]bool{http.MethodPost: true}},
		{"/streams", map[string]bool{http.MethodGet: true, http.MethodHead: true}},
		{"/streams/some-id", map[string]bool{http.MethodPut: true, http.MethodGet: true, http.MethodHead: true, http.MethodDelete: true}},
		{"/streams/some-id/update", map[string]bool{http.MethodPost: true}},
		{"/streams/some-id/forest", map[string]bool{http.MethodGet: true, http.MethodHead: true}},
		{"/streams/some-id/promote", map[string]bool{http.MethodPost: true}},
		{"/replica/some-id/connect", map[string]bool{http.MethodPost: true}},
		{"/replica/some-id/ship", map[string]bool{http.MethodPost: true}},
		{"/replica/some-id/snapshot", map[string]bool{http.MethodPost: true}},
		{"/replica/some-id/hw", map[string]bool{http.MethodGet: true, http.MethodHead: true}},
		{"/traces", map[string]bool{http.MethodGet: true, http.MethodHead: true}},
		{"/traces/some-id", map[string]bool{http.MethodGet: true, http.MethodHead: true}},
		{"/healthz", map[string]bool{http.MethodGet: true, http.MethodHead: true}},
		{"/metrics", map[string]bool{http.MethodGet: true, http.MethodHead: true}},
	}
	methods := []string{
		http.MethodGet, http.MethodHead, http.MethodPost,
		http.MethodPut, http.MethodDelete, http.MethodPatch,
	}
	for _, rt := range routes {
		for _, method := range methods {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, rt.path, nil))
			if rt.allowed[method] {
				// Allowed methods reach their handler; the status may still
				// be 404 (unregistered id) or 400, but never 405.
				if rec.Code == http.StatusMethodNotAllowed {
					t.Errorf("%s %s: status %d for an allowed method", method, rt.path, rec.Code)
				}
				continue
			}
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, rt.path, rec.Code)
			}
			if rec.Header().Get("Allow") == "" {
				t.Errorf("%s %s: 405 without an Allow header", method, rt.path)
			}
		}
	}
	// Unknown routes are still 404, whatever the method.
	for _, method := range methods {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/nope", nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s /nope: status %d, want 404", method, rec.Code)
		}
	}
}

// do runs one request against the handler and returns the recorder.
func do(h http.Handler, method, path string, body []byte, header map[string]string) *httptest.ResponseRecorder {
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func encodeBinary(t *testing.T, g *graph.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRegistryEndpointsLifecycle(t *testing.T) {
	g := gen.ErdosRenyi(1, 150, 600, gen.WeightUniform, 11)
	oracle := mst.Kruskal(g)
	body := encodeBinary(t, g)
	h := testServer(t, nil).handler()

	// Register.
	rec := do(h, http.MethodPut, "/graphs/road", body, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("put: status %d: %s", rec.Code, rec.Body.String())
	}
	var info struct {
		ID       string `json:"id"`
		Version  uint64 `json:"version"`
		Vertices int    `json:"vertices"`
		Edges    int    `json:"edges"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "road" || info.Version != 1 || info.Vertices != g.NumVertices() || info.Edges != g.NumEdges() {
		t.Fatalf("put reply: %+v", info)
	}

	// Read back, individually and in the listing.
	if rec := do(h, http.MethodGet, "/graphs/road", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("get: status %d", rec.Code)
	}
	rec = do(h, http.MethodGet, "/graphs", nil, nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"id":"road"`) {
		t.Fatalf("list: status %d body %s", rec.Code, rec.Body.String())
	}

	// Solve: first fresh, second cached, both the oracle forest.
	for i, wantCached := range []bool{false, true} {
		rec := do(h, http.MethodPost, "/graphs/road/solve", nil, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		var reply registrySolveReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		if reply.GraphID != "road" || reply.GraphVersion != 1 || reply.Cached != wantCached {
			t.Fatalf("solve %d provenance: %+v", i, reply)
		}
		if reply.Weight != oracle.Weight || reply.ForestEdges != len(oracle.EdgeIDs) {
			t.Fatalf("solve %d forest differs from oracle: %+v", i, reply)
		}
	}

	// Re-register: version bumps, cache entry dies, old version is gone.
	if rec := do(h, http.MethodPut, "/graphs/road", body, nil); rec.Code != http.StatusCreated {
		t.Fatalf("re-put: status %d", rec.Code)
	}
	rec = do(h, http.MethodPost, "/graphs/road/solve", nil, nil)
	var reply registrySolveReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.GraphVersion != 2 || reply.Cached {
		t.Fatalf("solve after re-put: %+v", reply)
	}
	if rec := do(h, http.MethodPost, "/graphs/road/solve?version=1", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("superseded version: status %d", rec.Code)
	}
	if rec := do(h, http.MethodPost, "/graphs/road/solve?version=2", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("pinned current version: status %d", rec.Code)
	}

	// Errors: bad body, bad version, unknown ids, then delete.
	if rec := do(h, http.MethodPut, "/graphs/bad", []byte("junk"), nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("junk put: status %d", rec.Code)
	}
	if rec := do(h, http.MethodPost, "/graphs/road/solve?version=zero", nil, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad version param: status %d", rec.Code)
	}
	if rec := do(h, http.MethodGet, "/graphs/missing", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("get missing: status %d", rec.Code)
	}
	if rec := do(h, http.MethodPost, "/graphs/missing/solve", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("solve missing: status %d", rec.Code)
	}
	if rec := do(h, http.MethodDelete, "/graphs/road", nil, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", rec.Code)
	}
	if rec := do(h, http.MethodDelete, "/graphs/road", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", rec.Code)
	}
}

func TestRegistryPutFromGraphDir(t *testing.T) {
	g := gen.ErdosRenyi(1, 80, 240, gen.WeightUniform, 12)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "g.llpg"), encodeBinary(t, g), 0o644); err != nil {
		t.Fatal(err)
	}

	// With -graph-dir unset, server-side loading is rejected.
	h := testServer(t, nil).handler()
	if rec := do(h, http.MethodPut, "/graphs/disk?path=g.llpg", nil, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("path without -graph-dir: status %d", rec.Code)
	}

	h = testServer(t, func(cfg *serverConfig) { cfg.graphDir = dir }).handler()
	rec := do(h, http.MethodPut, "/graphs/disk?path=g.llpg", nil, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("disk put: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := do(h, http.MethodGet, "/graphs/disk", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("get after disk put: status %d", rec.Code)
	}
	// Escapes are rejected before touching the filesystem; misses are 404.
	if rec := do(h, http.MethodPut, "/graphs/evil?path=..%2Fsecret", nil, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("escaping path: status %d", rec.Code)
	}
	if rec := do(h, http.MethodPut, "/graphs/gone?path=missing.llpg", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("missing file: status %d", rec.Code)
	}
}

func TestRegistrySolveQuota(t *testing.T) {
	g := gen.ErdosRenyi(1, 60, 180, gen.WeightUniform, 13)
	h := testServer(t, func(cfg *serverConfig) {
		cfg.quotaRate = 0.001 // one token, refilling ~every 17 minutes
		cfg.quotaBurst = 1
	}).handler()
	if rec := do(h, http.MethodPut, "/graphs/q", encodeBinary(t, g), nil); rec.Code != http.StatusCreated {
		t.Fatalf("put: status %d", rec.Code)
	}

	alice := map[string]string{"X-API-Key": "alice"}
	if rec := do(h, http.MethodPost, "/graphs/q/solve", nil, alice); rec.Code != http.StatusOK {
		t.Fatalf("first solve: status %d: %s", rec.Code, rec.Body.String())
	}
	rec := do(h, http.MethodPost, "/graphs/q/solve", nil, alice)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota solve: status %d, want 429", rec.Code)
	}
	retry, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("429 Retry-After %q, want integral seconds >= 1", rec.Header().Get("Retry-After"))
	}
	// Alice's exhaustion does not touch Bob (cache hit, but still metered).
	if rec := do(h, http.MethodPost, "/graphs/q/solve", nil, map[string]string{"X-API-Key": "bob"}); rec.Code != http.StatusOK {
		t.Fatalf("other tenant: status %d", rec.Code)
	}
}

// TestRegistrySolveCollapsesParallelRequests is the HTTP-level mirror of
// the CI serve-smoke assertion: 50 parallel solves of a hot graph perform
// exactly one underlying solve, however the requests interleave (joiners
// share the flight, stragglers hit the completed cache).
func TestRegistrySolveCollapsesParallelRequests(t *testing.T) {
	g := gen.ErdosRenyi(1, 200, 800, gen.WeightUniform, 14)
	oracle := mst.Kruskal(g)
	s := testServer(t, nil)
	h := s.handler()
	if rec := do(h, http.MethodPut, "/graphs/hot", encodeBinary(t, g), nil); rec.Code != http.StatusCreated {
		t.Fatalf("put: status %d", rec.Code)
	}

	const parallel = 50
	var wg sync.WaitGroup
	codes := make([]int, parallel)
	weights := make([]float64, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := do(h, http.MethodPost, "/graphs/hot/solve", nil, nil)
			codes[i] = rec.Code
			var reply registrySolveReply
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err == nil {
					weights[i] = reply.Weight
				}
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < parallel; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if weights[i] != oracle.Weight {
			t.Fatalf("request %d: weight %g, want %g", i, weights[i], oracle.Weight)
		}
	}
	st := s.reg.Stats()
	if st.Solves != 1 {
		t.Fatalf("underlying solves = %d, want exactly 1 (stats %+v)", st.Solves, st)
	}
	if st.Hits+st.Shared != parallel-1 {
		t.Fatalf("hits(%d) + shared(%d) != %d", st.Hits, st.Shared, parallel-1)
	}

	// The collapse is visible in /metrics, as the CI smoke test asserts.
	rec := do(h, http.MethodGet, "/metrics", nil, nil)
	if !strings.Contains(rec.Body.String(), `llpmst_registry_total{kind="solves"} 1`) {
		t.Fatalf("metrics missing the collapsed solve count:\n%s", rec.Body.String())
	}
}

// TestRegistryEndpointsShedWhileDraining pins the drain behaviour of the
// mutating registry routes.
func TestRegistryEndpointsShedWhileDraining(t *testing.T) {
	s := testServer(t, nil)
	h := s.handler()
	s.draining.Store(true)
	for _, rt := range []struct{ method, path string }{
		{http.MethodPut, "/graphs/x"},
		{http.MethodPost, "/graphs/x/solve"},
	} {
		rec := do(h, rt.method, rt.path, nil, nil)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s %s while draining: status %d", rt.method, rt.path, rec.Code)
		}
	}
}
