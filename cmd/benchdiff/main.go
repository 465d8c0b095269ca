// Command benchdiff compares `go test -bench` output (read from stdin)
// against the baseline numbers committed in BENCH_*.json files (given as
// arguments) and prints per-benchmark deltas for ns/op, B/op and allocs/op.
//
// Usage:
//
//	go test -run XXX -bench ... -benchmem . | benchdiff BENCH_core.json ...
//
// With -max-regress set (a fraction, e.g. 0.5), the tool exits non-zero
// when any matched benchmark's ns/op regresses beyond the threshold, and
// when a committed baseline matches no benchmark line — a deleted or
// renamed benchmark must take its baseline with it; allocation counts are
// compared exactly at any threshold, since they are deterministic where
// ns/op is noisy.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// entry supports both baseline schemas: the flat BENCH_merge.json form
// (ns_per_op at top level) and the before/after BENCH_core.json form, where
// "after" is the committed expectation.
type entry struct {
	Name    string   `json:"name"`
	NsPerOp float64  `json:"ns_per_op"`
	After   *metrics `json:"after"`
}

type baselineFile struct {
	Benchmarks []entry `json:"benchmarks"`
}

func (e *entry) expected() metrics {
	if e.After != nil {
		return *e.After
	}
	return metrics{NsPerOp: e.NsPerOp, BytesPerOp: -1, AllocsPerOp: -1}
}

// benchLine matches one result line of -bench output, with optional
// -benchmem columns and an optional -N GOMAXPROCS suffix on the name.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

func main() {
	maxRegress := flag.Float64("max-regress", 0,
		"fail when ns/op regresses by more than this fraction (0 = report only)")
	flag.Parse()

	base := map[string]metrics{}
	from := map[string]string{} // baseline name -> file that declared it
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		var f baselineFile
		if err := json.Unmarshal(data, &f); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", path, err)
			os.Exit(2)
		}
		for i := range f.Benchmarks {
			base[f.Benchmarks[i].Name] = f.Benchmarks[i].expected()
			from[f.Benchmarks[i].Name] = path
		}
	}

	pct := func(now, was float64) string {
		if was == 0 {
			if now == 0 {
				return "±0%"
			}
			return "new"
		}
		return fmt.Sprintf("%+.1f%%", 100*(now-was)/was)
	}

	failed := false
	seen := map[string]bool{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		want, ok := base[name]
		if !ok {
			fmt.Printf("%-40s (no baseline)\n", name)
			continue
		}
		seen[name] = true
		ns, _ := strconv.ParseFloat(m[2], 64)
		out := fmt.Sprintf("%-40s ns/op %12.2f vs %12.2f (%s)", name, ns, want.NsPerOp, pct(ns, want.NsPerOp))
		if m[3] != "" && want.BytesPerOp >= 0 {
			bop, _ := strconv.ParseFloat(m[3], 64)
			aop, _ := strconv.ParseFloat(m[4], 64)
			out += fmt.Sprintf("  B/op %s  allocs/op %s", pct(bop, want.BytesPerOp), pct(aop, want.AllocsPerOp))
			if *maxRegress > 0 && aop > want.AllocsPerOp*1.02+1 {
				out += "  ALLOC-REGRESSION"
				failed = true
			}
		}
		if *maxRegress > 0 && want.NsPerOp > 0 && ns > want.NsPerOp*(1+*maxRegress) {
			out += "  TIME-REGRESSION"
			failed = true
		}
		fmt.Println(out)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if len(seen) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines matched a baseline (is stdin -bench output?)")
		os.Exit(2)
	}
	if *maxRegress > 0 {
		var stale []string
		for name := range base {
			if !seen[name] {
				stale = append(stale, name)
			}
		}
		sort.Strings(stale)
		for _, name := range stale {
			fmt.Printf("%-40s STALE-BASELINE (in %s, no benchmark line)\n", name, from[name])
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
