package repro

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/render"
)

// BenchmarkConcurrentSessions measures the presentation engine's many-users,
// one-database scaling: N sessions share one immutable snapshot of a
// 20k-scope CCT and each runs a realistic interaction — register a private
// derived metric, hot-path drill-down, sort by the derived column, render.
// The sub-benchmarks (sessions=1/8/32) bound the cost of the snapshot's
// read-lock discipline and the per-session overlay under contention;
// ns/op is the wall time for ALL sessions of one round to finish. Baseline
// numbers live in BENCH_engine.json.
func BenchmarkConcurrentSessions(b *testing.B) {
	tree := syntheticCCT(20_000, 11)
	snap := engine.NewSnapshot(expdb.New(tree))
	workload := func() error {
		s := engine.NewSession(snap)
		defer s.Close()
		if err := s.AddDerivedMetric("w", "$0*4 - $0/2"); err != nil {
			return err
		}
		if len(s.HotPath(0)) == 0 {
			return fmt.Errorf("empty hot path")
		}
		d := s.Registry().ByName("w")
		s.SetSort(core.SortSpec{MetricID: d.ID})
		if len(s.VisibleRows()) == 0 {
			return fmt.Errorf("no rows")
		}
		return s.Render(io.Discard, render.Options{})
	}
	for _, sessions := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, sessions)
				for j := 0; j < sessions; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						errs[j] = workload()
					}(j)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
