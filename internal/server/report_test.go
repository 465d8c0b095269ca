package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// getReport fetches /v1/report+query and returns status and body.
func getReport(t *testing.T, base, query string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/report" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestReportEndpoint exercises GET /v1/report over the default snapshot
// and over named catalog entries, including the baseline diff.
func TestReportEndpoint(t *testing.T) {
	data := fixtureBytes(t)
	srv := New(openedSnapshot(t, data), nil, 1)
	defer srv.Close()
	if err := srv.AddSnapshot("other", openedSnapshot(t, data)); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddSnapshot("base", openedSnapshot(t, data)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body := getReport(t, ts.URL, "")
	if status != http.StatusOK {
		t.Fatalf("default report: status %d: %s", status, body)
	}
	var rep struct {
		Program  string            `json:"program"`
		Ranks    int               `json:"ranks"`
		Scopes   int               `json:"scopes"`
		HotPaths []json.RawMessage `json:"hot_paths"`
		Waste    []json.RawMessage `json:"waste"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Ranks != 3 || rep.Scopes == 0 {
		t.Fatalf("report ranks=%d scopes=%d, want 3 ranks and scopes > 0", rep.Ranks, rep.Scopes)
	}
	if len(rep.HotPaths) == 0 {
		t.Fatal("report has no hot paths")
	}
	if len(rep.Waste) == 0 {
		t.Fatal("fixture has mean/max summaries but report has no waste analysis")
	}

	// Named db plus baseline: same bytes on both sides, so the diff runs
	// and reports no movers.
	status, body = getReport(t, ts.URL, "?db=other&baseline=base&top=3")
	if status != http.StatusOK {
		t.Fatalf("baseline report: status %d: %s", status, body)
	}
	var withBase struct {
		Regressions *struct {
			Regressions  []json.RawMessage `json:"regressions"`
			Improvements []json.RawMessage `json:"improvements"`
		} `json:"regressions"`
	}
	if err := json.Unmarshal(body, &withBase); err != nil {
		t.Fatal(err)
	}
	if withBase.Regressions == nil {
		t.Fatal("baseline given but report has no regressions section")
	}
	if n := len(withBase.Regressions.Regressions); n != 0 {
		t.Fatalf("identical databases diffed to %d regressions", n)
	}

	// Error paths.
	if status, _ := getReport(t, ts.URL, "?db=nope"); status != http.StatusNotFound {
		t.Fatalf("unknown db: status %d, want 404", status)
	}
	if status, _ := getReport(t, ts.URL, "?baseline=nope"); status != http.StatusNotFound {
		t.Fatalf("unknown baseline: status %d, want 404", status)
	}
	if status, _ := getReport(t, ts.URL, "?top=many"); status != http.StatusBadRequest {
		t.Fatalf("bad top: status %d, want 400", status)
	}
	if status, _ := getReport(t, ts.URL, "?threshold=hot"); status != http.StatusBadRequest {
		t.Fatalf("bad threshold: status %d, want 400", status)
	}
	if status, _ := getReport(t, ts.URL, "?metric=NOPE"); status == http.StatusOK {
		t.Fatal("unknown metric reported 200")
	}

	// Identical queries return identical bytes (report determinism holds
	// across the transport too).
	_, b1 := getReport(t, ts.URL, "?db=other&baseline=base")
	_, b2 := getReport(t, ts.URL, "?db=other&baseline=base")
	if string(b1) != string(b2) {
		t.Fatal("same report query returned different bytes")
	}
}

// TestReportEndpointNoDefault checks the no-default-database error and
// that concurrent report requests over one shared entry are safe.
func TestReportEndpointNoDefault(t *testing.T) {
	srv := NewWithConfig(nil, Config{Jobs: 1})
	defer srv.Close()
	if err := srv.AddSnapshot("only", openedSnapshot(t, fixtureBytes(t))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := getReport(t, ts.URL, ""); status != http.StatusNotFound {
		t.Fatalf("no default db: status %d, want 404", status)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/report?db=only")
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			if _, err := io.ReadAll(resp.Body); err != nil {
				errs <- err.Error()
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- resp.Status
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent report failed: %s", e)
	}
}
