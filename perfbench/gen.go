package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/catalog"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/sampler"
	"repro/internal/structfile"
)

// genParams shape one layered call-DAG program and its sampled run. Every
// workload's data comes from this generator: Levels levels of PerLevel
// procedures, each calling Sites procedures of the next level (chosen by
// the seed), every call site taken with probability BranchP. Each rank
// draws its branches from its own seed, so ranks sample different
// contexts and the merged tree grows with the rank count — the regime of
// the paper's scalability claims.
type genParams struct {
	Levels   int
	PerLevel int
	Sites    int
	BranchP  float64
	Ranks    int
	Period   uint64
	// Summaries adds mean/min/max/stddev columns across ranks, which the
	// unattended report's waste and imbalance sections read.
	Summaries bool
	// Trace captures time-dimension traces into the database.
	Trace bool
}

// layeredProgram builds the generator's program: main calls one level-0
// procedure; inner procedures do a little work and then make their calls;
// leaves run a short loop of two statements. The seed chooses the call
// graph; work amounts are fixed, so every seed samples about as many
// contexts and runs take about as long.
func layeredProgram(name string, gp genParams, seed int64) (*prog.Program, error) {
	rng := rand.New(rand.NewSource(seed))
	procName := func(l, i int) string { return fmt.Sprintf("l%02d_p%02d", l, i) }
	b := prog.NewBuilder(name).Module(name + ".exe")
	for l := 0; l < gp.Levels; l++ {
		b.File(fmt.Sprintf("level%02d.c", l))
		for i := 0; i < gp.PerLevel; i++ {
			line := 10 + 20*i
			var body []prog.Stmt
			if l == gp.Levels-1 {
				body = append(body, prog.L(line+1, 2, prog.W(line+2, 900), prog.W(line+3, 350)))
			} else {
				body = append(body, prog.W(line+1, 300))
				for s := 0; s < gp.Sites; s++ {
					callee := procName(l+1, rng.Intn(gp.PerLevel))
					body = append(body, prog.IfP(line+2+2*s, gp.BranchP, prog.C(line+3+2*s, callee)))
				}
			}
			b.Proc(procName(l, i), line, body...)
		}
	}
	b.File(name+".c").Proc("main", 1, prog.C(2, procName(0, rng.Intn(gp.PerLevel)))).Entry("main")
	return b.Build()
}

// measure lowers the program, recovers its structure and runs it on every
// rank under the sampler: what hpcstruct and hpcrun hand to hpcprof.
func measure(s sp, p *prog.Program, opts lower.Options, gp genParams, params map[string]int64, seed int64) (doc *structfile.Doc, profs []*profile.Profile, err error) {
	im, err := lower.Lower(p, opts)
	if err != nil {
		return nil, nil, err
	}
	err = s.do("structfile.recover", func() (err error) {
		doc, err = structfile.Recover(im)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = s.do("mpi.run", func() (err error) {
		profs, err = mpi.Run(im, mpi.Config{
			NRanks: gp.Ranks,
			Params: params,
			Seed:   seed,
			Events: sampler.DefaultEvents(gp.Period),
			Trace:  gp.Trace,
		})
		return err
	})
	return doc, profs, err
}

// writeProfiles writes one measurement file per rank into dir and returns
// the paths and their total size.
func writeProfiles(s sp, dir string, profs []*profile.Profile) ([]string, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	var paths []string
	var total int64
	for _, p := range profs {
		path := filepath.Join(dir, fmt.Sprintf("%s-%06d-%03d.cpprof", p.Program, p.Rank, p.Thread))
		err := s.do("profile.write", func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := p.Write(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
		if err != nil {
			return nil, 0, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, 0, err
		}
		total += fi.Size()
		paths = append(paths, path)
	}
	return paths, total, nil
}

// mergeFiles is hpcprof's merge: nproc accumulators each read and fold a
// contiguous shard of the measurement files, then a pairwise combine and
// the finishing pass.
func mergeFiles(s sp, doc *structfile.Doc, paths []string, summaries bool) (*merge.Result, error) {
	jobs := min(runtime.GOMAXPROCS(0), len(paths))
	accs := make([]*merge.Accumulator, jobs)
	errs := make([]error, jobs)
	shards := s.child("merge.shards")
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		accs[w] = merge.NewAccumulator(doc)
		lo, hi := len(paths)*w/jobs, len(paths)*(w+1)/jobs
		wg.Add(1)
		go func(w int, paths []string) {
			defer wg.Done()
			for _, path := range paths {
				if errs[w] = addFile(shards, doc, accs[w], path); errs[w] != nil {
					return
				}
			}
		}(w, paths[lo:hi])
	}
	wg.Wait()
	shards.end()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var acc *merge.Accumulator
	err := s.do("merge.combine", func() (err error) {
		acc, err = merge.Combine(accs)
		return err
	})
	if err != nil {
		return nil, err
	}
	var res *merge.Result
	err = s.do("merge.finish", func() (err error) {
		res, err = acc.Finish()
		return err
	})
	if err != nil || !summaries || res.NRanks < 2 {
		return res, err
	}
	err = s.do("merge.summaries", func() error {
		for _, d := range res.Tree.Reg.Columns() {
			if d.Kind != metric.Raw {
				continue
			}
			if err := res.AddSummaries(d.ID, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
				return err
			}
		}
		return nil
	})
	return res, err
}

func addFile(s sp, doc *structfile.Doc, acc *merge.Accumulator, path string) error {
	var p *profile.Profile
	err := s.do("profile.read", func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		p, err = profile.Read(f)
		return err
	})
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	if err := s.do("merge.add", func() error { return acc.Add(p) }); err != nil {
		return fmt.Errorf("merging %s: %w", path, err)
	}
	return nil
}

// writeDB writes an experiment as a v3 database through the atomic
// temp+fsync+rename path and returns its size.
func writeDB(s sp, exp *expdb.Experiment, path string) (int64, error) {
	err := s.do("expdb.write", func() error {
		return expdb.WriteFileAtomic(path, func(f *os.File) error { return exp.WriteBinaryV3(f) })
	})
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// dbSpec is one database to build: a program, how to compile and run it,
// and the run's seed.
type dbSpec struct {
	name   string
	prog   *prog.Program
	opts   lower.Options
	gp     genParams
	params map[string]int64
	seed   int64
}

// builtDB is a database written during set-up.
type builtDB struct {
	path   string
	size   int64
	scopes int
}

// buildDB runs the hpcrun → hpcprof path for one spec: sampled run,
// measurement files, merge, optional trace attachment, v3 database.
func buildDB(s sp, spec dbSpec, dir string) (builtDB, error) {
	doc, profs, err := measure(s, spec.prog, spec.opts, spec.gp, spec.params, spec.seed)
	if err != nil {
		return builtDB{}, err
	}
	paths, _, err := writeProfiles(s, filepath.Join(dir, spec.name+"-meas"), profs)
	if err != nil {
		return builtDB{}, err
	}
	res, err := mergeFiles(s, doc, paths, spec.gp.Summaries)
	if err != nil {
		return builtDB{}, err
	}
	exp := expdb.FromMerge(res)
	if spec.gp.Trace {
		if err := expdb.TraceRanksFromProfiles(exp, doc, profs); err != nil {
			return builtDB{}, err
		}
	}
	db := builtDB{path: filepath.Join(dir, spec.name+".db"), scopes: res.Tree.NumNodes()}
	db.size, err = writeDB(s, exp, db.path)
	return db, err
}

// publish registers a written database as a catalog generation.
func publish(s sp, cat *catalog.Catalog, key catalog.Key, path string) error {
	return s.do("catalog.publish", func() error { return cat.Publish(key, path) })
}
