package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/server"
)

// sessionClients is the closed loop's client count: two, the CPU count
// of the machine the benchmark was calibrated on.
const sessionClients = 2

// client is one HTTP connection to the in-process server.
type client struct {
	base string
	hc   *http.Client
}

// newClient opens a client that keeps at most one connection.
func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request inside a server.route.<route> span and returns
// the body; a status other than want is an error.
func (c *client) call(s sp, route, method, path string, body []byte, want int) ([]byte, error) {
	rs := s.child("server.route." + route)
	defer rs.end()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return b, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, b)
	}
	return b, nil
}

// create opens a session over a catalog database and returns its token.
func (c *client) create(s sp, db string) (string, error) {
	body, _ := json.Marshal(map[string]string{"db": db})
	b, err := c.call(s, "session", "POST", "/v1/sessions", body, http.StatusCreated)
	if err != nil {
		return "", err
	}
	var r struct{ Token string }
	if err := json.Unmarshal(b, &r); err != nil {
		return "", err
	}
	return r.Token, nil
}

// exec runs one command line and returns its output; a command error is
// an error.
func (c *client) exec(s sp, token, line string) (string, error) {
	body, _ := json.Marshal(map[string]string{"line": line})
	b, err := c.call(s, "session", "POST", "/v1/sessions/"+token+"/exec", body, http.StatusOK)
	if err != nil {
		return "", err
	}
	var r struct {
		Output string
		Error  string
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return "", err
	}
	if r.Error != "" {
		return "", fmt.Errorf("%q: %s", line, r.Error)
	}
	return r.Output, nil
}

func (c *client) remove(s sp, token string) error {
	_, err := c.call(s, "session", "DELETE", "/v1/sessions/"+token, nil, http.StatusNoContent)
	return err
}

// serverShed reads the shed-request counter from /v1/stats.
func (c *client) serverShed() (float64, error) {
	b, err := c.call(sp{}, "stats", "GET", "/v1/stats", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	var r struct {
		Shed uint64 `json:"shed_requests"`
	}
	err = json.Unmarshal(b, &r)
	return float64(r.Shed), err
}

// sessionState is the session workload's set-up: one ~92k-scope database
// published under several series, a catalog whose budget holds about one
// of them, and a server over it.
type sessionState struct {
	cat    *catalog.Catalog
	hs     *httptest.Server
	series []string
	path   string
	size   int64
	scopes int
	// want are the outputs of the first answer and the script, computed
	// in-process with engine.Open + Session.Do during set-up.
	want []string
}

// startServer starts an in-process HTTP server over the catalog and
// returns it with a stop func that closes server, sessions and catalog.
func startServer(cat *catalog.Catalog) (*httptest.Server, func()) {
	srv := server.NewWithConfig(nil, server.Config{Catalog: cat})
	hs := httptest.NewServer(srv.Handler())
	return hs, func() {
		hs.Close()
		srv.Close()
		cat.Close()
	}
}

// runSession is interactive analysis as a closed loop: sessionClients
// clients, each on its own connection, run session after session — create
// over the next series, the first answer, the navigation script, delete.
// Series rotate and the budget holds one database, so every open is cold:
// storage open, tree decode and view construction dominate; merge does
// nothing.
func runSession(e *env) (*outcome, error) {
	gp := e.sizes.session
	st, release, setup, err := setupRepeated(e, func(s sp, dir string) (*sessionState, func(), error) {
		rm := func() { os.RemoveAll(dir) }
		p, err := layeredProgram("layered", gp, e.seed)
		if err != nil {
			return nil, rm, err
		}
		db, err := buildDB(s, dbSpec{name: "layered", prog: p, gp: gp, seed: e.seed}, dir)
		if err != nil {
			return nil, rm, err
		}
		path, size, scopes := db.path, db.size, db.scopes
		snap, err := engine.Open(path)
		if err != nil {
			return nil, rm, err
		}
		want, err := replay(sp{}, snap, append([]string{firstLine}, script...))
		snap.Release()
		if err != nil {
			return nil, rm, err
		}
		cat := catalog.New(catalog.Config{MemBudget: size + size/2})
		st := &sessionState{cat: cat, path: path, size: size, scopes: scopes, want: want}
		for i := 0; i < e.sizes.sessionSeries; i++ {
			key := catalog.Key{Service: "session", Run: fmt.Sprintf("s%d", i), Ts: 1}
			if err := publish(s, cat, key, path); err != nil {
				cat.Close()
				return nil, rm, err
			}
			st.series = append(st.series, key.Series())
		}
		var stop func()
		st.hs, stop = startServer(cat)
		return st, func() { stop(); rm() }, nil
	})
	if release != nil {
		defer release()
	}
	if err != nil {
		return nil, err
	}

	var chk check
	var first, cmd, tracedFirst, tracedCmd, resident samples
	perCmd := make([]samples, len(script)+1) // HTTP latency per script line, first answer at 0
	var next, completed atomic.Int64
	before := st.cat.Stats()
	start := time.Now()
	deadline := start.Add(e.seconds)
	var wg sync.WaitGroup
	for c := 0; c < sessionClients; c++ {
		cl := newClient(st.hs.URL)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.close()
			for time.Now().Before(deadline) {
				k := next.Add(1) - 1
				tr := e.unitTracer(int(k))
				f, cmds, err := oneSession(tr.root("bench.session", k), cl, st, st.series[k%int64(len(st.series))], perCmd)
				chk.op(err)
				if err != nil {
					continue
				}
				completed.Add(1)
				fs, cs := &first, &cmd
				if tr != nil {
					fs, cs = &tracedFirst, &tracedCmd
				}
				fs.add(f)
				for _, v := range cmds {
					cs.add(v)
				}
				if e.traced {
					resident.add(float64(st.cat.Stats().ResidentBytes) / (1 << 20))
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := st.cat.Stats()

	o := &outcome{e2e: map[string]obs{}, layer: map[string]obs{}}
	chk.into(o)
	n := int(completed.Load())
	o.e2e["setup_s"] = setup
	o.e2e["work_per_s"] = obs{Value: float64(n) / elapsed.Seconds(), Unit: "1/s", N: n}
	o.e2e["latency_ms_p50"] = latencyObs(cmd.get(), 0.5)
	o.e2e["latency_ms_p95"] = latencyObs(cmd.get(), 0.95)
	o.e2e["first_answer_ms_p50"] = latencyObs(first.get(), 0.5)
	o.e2e["db_bytes_per_scope"] = obs{Value: float64(st.size) / float64(st.scopes), Unit: "B", N: 1}
	o.named = []namedObs{
		{"setup_s", setup},
		{"first_answer_ms_p50", o.e2e["first_answer_ms_p50"]},
		{"first_answer_ms_p90", latencyObs(first.get(), 0.9)},
		{"cmd_ms_p50", o.e2e["latency_ms_p50"]},
		{"cmd_ms_p99", latencyObs(cmd.get(), 0.99)},
		{"sessions_per_s", o.e2e["work_per_s"]},
	}
	o.sizes = map[string]float64{
		"scopes": float64(st.scopes), "db_bytes": float64(st.size), "series": float64(len(st.series)),
		"clients": sessionClients, "sessions": float64(n), "mem_budget_bytes": float64(st.cat.Stats().MemBudget),
	}
	if !e.traced {
		return o, nil
	}

	cl := newClient(st.hs.URL)
	defer cl.close()
	shed, err := cl.serverShed()
	chk.op(err)
	probe := e.tr.root("probe.session", -1)
	// Cold acquires in the same rotation the sessions use.
	for i := 0; i < 2*len(st.series); i++ {
		var snap *engine.Snapshot
		err := probe.do("catalog.acquire", func() (err error) {
			snap, _, err = st.cat.Acquire(st.series[i%len(st.series)])
			return err
		})
		chk.op(err)
		if err == nil {
			snap.Release()
		}
	}
	for i := 0; i < 3; i++ {
		chk.op(probeDB(probe, st.path, st.path))
	}
	probe.end()
	chk.into(o)

	spans := e.tr.all()
	engineLayer(o, spans)
	o.layer["server.route.session_ms_p50"] = medianMs(spans, "server.route.session")
	o.layer["server.exec_overhead_ms"] = execOverhead(spans, append([]string{firstLine}, script...), perCmd)
	o.layer["server.shed"] = obs{Value: shed, Unit: "count", N: 1}
	o.layer["expdb.db_bytes"] = obs{Value: float64(st.size), Unit: "B", N: 1}
	attempts := float64(next.Load())
	opens := float64(after.Opens - before.Opens)
	o.layer["catalog.opens"] = obs{Value: opens, Unit: "count", N: 1}
	o.layer["catalog.evictions"] = obs{Value: float64(after.Evictions - before.Evictions), Unit: "count", N: 1}
	o.layer["catalog.hit_ratio"] = obs{Value: (attempts - opens) / attempts, Unit: "ratio", N: int(attempts)}
	o.layer["catalog.resident_mb_max"] = obs{Value: quantile(resident.get(), 1), Unit: "MB", N: len(resident.get())}
	o.layer["trace.overhead_latency_ms_p50"] = obs{Value: quantile(tracedCmd.get(), 0.5) - quantile(cmd.get(), 0.5), Unit: "ms", N: len(tracedCmd.get())}
	o.layer["trace.overhead_first_answer_ms_p50"] = obs{Value: quantile(tracedFirst.get(), 0.5) - quantile(first.get(), 0.5), Unit: "ms", N: len(tracedFirst.get())}
	return o, nil
}

// oneSession runs one session and checks every output against the
// in-process replay. It returns the first-answer latency and the latency
// of each later command, in ms.
func oneSession(root sp, cl *client, st *sessionState, series string, perCmd []samples) (float64, []float64, error) {
	defer root.end()
	t0 := time.Now()
	token, err := cl.create(root, series)
	if err != nil {
		return 0, nil, err
	}
	var lat []float64
	var firstMs float64
	for i, line := range append([]string{firstLine}, script...) {
		t := time.Now()
		out, err := cl.exec(root, token, line)
		if err != nil {
			return 0, nil, err
		}
		if out != st.want[i] {
			return 0, nil, fmt.Errorf("%q over HTTP differs from the in-process replay", line)
		}
		now := time.Now()
		if root.t == nil {
			perCmd[i].add(ms(now.Sub(t)))
		}
		if i == 0 {
			firstMs = ms(now.Sub(t0))
		} else {
			lat = append(lat, ms(now.Sub(t)))
		}
	}
	return firstMs, lat, cl.remove(root, token)
}

// execOverhead is the server's share of an exec: for each command line,
// the median HTTP exec latency minus the median in-process Session.Do
// time of the same command (engine spans of the probe), then the median
// over lines.
func execOverhead(spans []span, lines []string, perCmd []samples) obs {
	var diffs []float64
	for i, line := range lines {
		http, inproc := quantile(perCmd[i].get(), 0.5), medianMs(spans, "engine."+cmdName(line)).Value
		if len(perCmd[i].get()) > 0 && !math.IsNaN(inproc) {
			diffs = append(diffs, http-inproc)
		}
	}
	return obs{Value: quantile(diffs, 0.5), Unit: "ms", N: len(diffs)}
}
