package obshttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"coherdb/internal/obs"
)

func populatedOptions(t *testing.T) (Options, *bool) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Help("coherdb_test_total", "test counter")
	reg.Counter("coherdb_test_total").Add(7)

	col := obs.NewCollector(16)
	sp := col.StartSpan("sql.stmt", obs.String("sql", "SELECT 1"))
	sp.Finish()

	ql := obs.NewQueryLog(4, time.Nanosecond)
	tok := ql.StartSession("SELECT", "SELECT * FROM D", 0)
	time.Sleep(time.Microsecond)
	tok.Finish(nil)
	ql.StartSession("SELECT", "still running", 0)

	scraped := false
	return Options{
		Registry:  reg,
		Collector: col,
		QueryLog:  ql,
		OnScrape:  []func(){func() { scraped = true }},
	}, &scraped
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	opts, scraped := populatedOptions(t)
	h := Handler(opts)

	res, body := get(t, h, "/healthz")
	if res.StatusCode != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", res.StatusCode, body)
	}

	res, body = get(t, h, "/metrics")
	if res.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", res.StatusCode)
	}
	if !strings.Contains(res.Header.Get("Content-Type"), "version=0.0.4") {
		t.Errorf("/metrics content type = %q", res.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, "coherdb_test_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !*scraped {
		t.Error("OnScrape callback did not run before /metrics render")
	}

	res, body = get(t, h, "/traces")
	if res.StatusCode != 200 {
		t.Fatalf("/traces status = %d", res.StatusCode)
	}
	var traces struct {
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/traces not JSON: %v\n%s", err, body)
	}
	if len(traces.Spans) != 1 || traces.Spans[0].Name != "sql.stmt" {
		t.Errorf("/traces spans = %+v", traces.Spans)
	}

	res, body = get(t, h, "/queries")
	if res.StatusCode != 200 {
		t.Fatalf("/queries status = %d", res.StatusCode)
	}
	var queries struct {
		InFlight []json.RawMessage `json:"in_flight"`
		Slow     []json.RawMessage `json:"slow"`
	}
	if err := json.Unmarshal([]byte(body), &queries); err != nil {
		t.Fatalf("/queries not JSON: %v\n%s", err, body)
	}
	if len(queries.InFlight) != 1 || len(queries.Slow) != 1 {
		t.Errorf("/queries in_flight=%d slow=%d, want 1/1", len(queries.InFlight), len(queries.Slow))
	}

	res, body = get(t, h, "/debug/pprof/")
	if res.StatusCode != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", res.StatusCode)
	}
	res, _ = get(t, h, "/debug/pprof/cmdline")
	if res.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline status = %d", res.StatusCode)
	}
}

// TestHandlerNilOptions verifies every endpoint stays well-formed when the
// process runs without a registry, collector or query log wired in.
func TestHandlerNilOptions(t *testing.T) {
	h := Handler(Options{})

	res, _ := get(t, h, "/metrics")
	if res.StatusCode != 200 {
		t.Errorf("/metrics status = %d", res.StatusCode)
	}

	res, body := get(t, h, "/traces")
	if res.StatusCode != 200 {
		t.Fatalf("/traces status = %d", res.StatusCode)
	}
	var traces struct {
		Spans []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/traces not JSON: %v\n%s", err, body)
	}

	res, body = get(t, h, "/queries")
	if res.StatusCode != 200 {
		t.Fatalf("/queries status = %d", res.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &struct{}{}); err != nil {
		t.Fatalf("/queries not JSON with nil log: %v\n%s", err, body)
	}
}

func TestServeAndClose(t *testing.T) {
	opts, _ := populatedOptions(t)
	srv, err := Serve("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/healthz over TCP = %d", res.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Error("server still reachable after Close")
	}
}

// TestShutdownDrainsInFlight pins the graceful-shutdown contract: a
// request already executing when Shutdown is called runs to completion
// and gets its full response, while new connections are refused.
func TestShutdownDrainsInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	opts := Options{
		Registry: obs.NewRegistry(),
		// The scrape hook doubles as a block point: the in-flight
		// /metrics request parks here until the test releases it.
		OnScrape: []func(){func() {
			once.Do(func() { close(entered) })
			<-release
		}},
	}
	srv, err := Serve("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		res, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			done <- result{0, err}
			return
		}
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		done <- result{res.StatusCode, nil}
	}()
	<-entered

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Error("new connection accepted during drain")
	}

	close(release)
	r := <-done
	if r.err != nil || r.code != 200 {
		t.Fatalf("in-flight request after Shutdown: code=%d err=%v", r.code, r.err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
