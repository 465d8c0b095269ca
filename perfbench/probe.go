package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/diff"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/structfile"
)

// script is the session workload's navigation after the first answer
// (hot CYCLES), following the paper's workflow: callers view, drill in,
// flat view, flatten, sort by exclusive cost, summary statistics, a
// derived metric, back to the calling context view, open its root, zoom
// in and out, and a final render. expandall is left out: at ~100k scopes it is a bulk
// export of tens of MB, not an interactive step.
var script = []string{
	"view callers",
	"expand 0",
	"view flat",
	"flatten",
	"sort CYCLES:excl",
	"stats CYCLES",
	"derived cpi=$0/($1+1)",
	"view cc",
	"expand 0",
	"zoom 1",
	"out",
	"ls",
}

const firstLine = "hot CYCLES"

// cmdName maps a command line to its span name suffix ("view flat" ->
// "view_flat", "sort CYCLES:excl" -> "sort").
func cmdName(line string) string {
	f := strings.Fields(line)
	if len(f) > 1 && f[0] == "view" {
		return "view_" + f[1]
	}
	return f[0]
}

// replay runs the first answer and the script in-process over a snapshot,
// one engine span per command, and returns the outputs.
func replay(s sp, snap *engine.Snapshot, lines []string) ([]string, error) {
	sess := engine.NewSession(snap)
	defer sess.Close()
	var outs []string
	for _, line := range lines {
		var resp engine.Response
		_ = s.do("engine."+cmdName(line), func() error {
			resp = sess.Do(engine.Request{Line: line})
			return nil
		})
		if resp.Err != "" {
			return nil, fmt.Errorf("%q: %s", line, resp.Err)
		}
		outs = append(outs, resp.Output)
	}
	return outs, nil
}

// probeDB times the layers a server runs inside one request, by calling
// them directly on a database file: the v3 open and tree decode, both
// derived views, the first answer and navigation script, the unattended
// report and a diff against base (another database, or the same one).
// The traced run probes each workload's databases after its timed phase,
// since the program itself carries no spans.
func probeDB(s sp, path, base string) error {
	open := func(path string) (*engine.Snapshot, error) {
		var mdb *expdb.MappedDB
		err := s.do("expdb.open", func() (err error) {
			mdb, err = expdb.OpenMapped(path)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = s.do("expdb.decode", func() error {
			_, err := mdb.Experiment()
			return err
		})
		if err != nil {
			mdb.Close()
			return nil, err
		}
		snap, err := engine.NewMappedSnapshot(mdb)
		if err != nil {
			mdb.Close()
			return nil, err
		}
		return snap, nil
	}
	snap, err := open(path)
	if err != nil {
		return err
	}
	defer snap.Release()
	// The script runs first, on a cold snapshot, as a new HTTP session
	// would; the views, report and diff then read fully faulted columns.
	if _, err := replay(s, snap, append([]string{firstLine}, script...)); err != nil {
		return err
	}
	if err := s.do("engine.fault_all", snap.FaultAll); err != nil {
		return err
	}
	_ = s.do("core.callers_view", func() error { core.BuildCallersView(snap.Tree()); return nil })
	_ = s.do("core.flat_view", func() error { core.BuildFlatView(snap.Tree()); return nil })
	if err := s.do("report.build", func() error {
		_, err := report.Build(snap.Experiment(), report.Options{})
		return err
	}); err != nil {
		return err
	}
	other := snap
	if base != path {
		if other, err = open(base); err != nil {
			return err
		}
		defer other.Release()
		if err := other.FaultAll(); err != nil {
			return err
		}
	}
	return s.do("diff.diff", func() error {
		_, err := diff.Diff(diff.Config{},
			diff.Input{Label: "A", Exp: other.Experiment()},
			diff.Input{Label: "B", Exp: snap.Experiment()})
		return err
	})
}

// probeCorrelate times correlate.Correlate alone on one measurement file.
func probeCorrelate(s sp, doc *structfile.Doc, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	p, err := profile.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	return s.do("correlate.correlate", func() error {
		_, err := correlate.Correlate(doc, p)
		return err
	})
}

// engineLayer adds the engine, core, expdb-open and report/diff metrics of
// the probe spans to o.
func engineLayer(o *outcome, spans []span) {
	for _, c := range scriptCmds {
		o.layer["engine."+c+"_ms"] = medianMs(spans, "engine."+c)
	}
	o.layer["core.flat_view_ms"] = medianMs(spans, "core.flat_view")
	o.layer["core.callers_view_ms"] = medianMs(spans, "core.callers_view")
	o.layer["expdb.open_ms"] = medianMs(spans, "expdb.open")
	o.layer["expdb.decode_ms"] = medianMs(spans, "expdb.decode")
	o.layer["report.build_ms"] = medianMs(spans, "report.build")
	o.layer["diff.diff_ms"] = medianMs(spans, "diff.diff")
	o.layer["catalog.acquire_ms"] = medianMs(spans, "catalog.acquire")
	o.layer["mpi.run_s"] = obs{Value: medianMs(spans, "mpi.run").Value / 1e3, Unit: "s", N: len(durations(spans, "mpi.run"))}
	o.layer["structfile.recover_ms"] = medianMs(spans, "structfile.recover")
}
