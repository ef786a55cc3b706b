package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/obs"
	"multijoin/internal/paperex"
	"multijoin/internal/relation"
)

// The bench pipeline: a fixed corpus (the paper's five examples plus
// deterministic generated shapes) is analyzed under a fresh recorder per
// case, and the timings and engine counters are emitted as
// schema-versioned JSON (BENCH_joinopt.json). CI runs this on every push
// and fails if the report does not validate, so performance numbers stay
// machine-readable and the observability plumbing stays honest.

// BenchCase is one corpus entry's measured result.
type BenchCase struct {
	// Name identifies the corpus entry, e.g. "example1" or "chain5".
	Name string `json:"name"`
	// Relations is the database's relation count.
	Relations int `json:"relations"`
	// Tau maps each searched subspace to its optimum τ.
	Tau map[string]int `json:"tau"`
	// WallNS is the case's analysis wall time.
	WallNS int64 `json:"wallNs"`
	// Tuples and States are the engine's τ spend and evaluated/DP state
	// count, from the recorder's counters.
	Tuples int64 `json:"tuples"`
	// States is eval.states + dp.states.
	States int64 `json:"states"`
	// StatesPerSec is States normalized by WallNS.
	StatesPerSec float64 `json:"statesPerSec"`
	// Counters is the case's full counter snapshot.
	Counters map[string]int64 `json:"counters"`
}

// KernelBench is one join-kernel micro-measurement: a fixed operation
// on fixed inputs, timed over a fixed iteration count with allocation
// deltas from the runtime's monotone malloc counters. The section pins
// the dictionary-encoded kernel's constant factors the same way the τ
// cases pin the optimizer's outputs.
type KernelBench struct {
	// Name identifies the measured operation, e.g. "join-seq".
	Name string `json:"name"`
	// Iters is the number of timed iterations.
	Iters int `json:"iters"`
	// NsPerOp, BytesPerOp and AllocsPerOp are per-iteration averages.
	NsPerOp int64 `json:"nsPerOp"`
	// BytesPerOp is heap bytes allocated per iteration.
	BytesPerOp int64 `json:"bytesPerOp"`
	// AllocsPerOp is heap allocations per iteration.
	AllocsPerOp int64 `json:"allocsPerOp"`
	// Partitions is the hash-partition count of the measured join's
	// result (0: sequential path, or not a join).
	Partitions int `json:"partitions"`
}

// BenchTotals aggregates the corpus.
type BenchTotals struct {
	// Cases is the number of corpus entries measured.
	Cases int `json:"cases"`
	// Tuples and States sum the per-case spends; WallNS sums wall time.
	Tuples int64 `json:"tuples"`
	// States sums the per-case state counts.
	States int64 `json:"states"`
	// WallNS sums the per-case wall times.
	WallNS int64 `json:"wallNs"`
}

// BenchReport is the machine-readable output of the bench pipeline.
type BenchReport struct {
	// Schema is obs.BenchSchema.
	Schema string `json:"schema"`
	// GoMaxProcs records the GOMAXPROCS the bench ran at.
	GoMaxProcs int `json:"goMaxProcs"`
	// Cases lists one measurement per corpus entry, in run order.
	Cases []BenchCase `json:"cases"`
	// Kernel lists the join-kernel micro-benchmarks.
	Kernel []KernelBench `json:"kernel"`
	// Serve is the service-level load measurement (schema v4).
	Serve *ServeBench `json:"serve"`
	// Planning is the estimate-driven planning measurement (schema v6):
	// exact-vs-plan-only walls and per-subspace regret.
	Planning *PlanningBench `json:"planning"`
	// Acyclic is the Yannakakis fast-path measurement (schema v7):
	// reduction-plus-join τ and max intermediate against the best
	// binary-join subspace on a connected α-acyclic corpus.
	Acyclic *AcyclicBench `json:"acyclic"`
	// Totals aggregates the corpus.
	Totals BenchTotals `json:"totals"`
}

// benchEntry pairs a corpus name with its database.
type benchEntry struct {
	name string
	db   *database.Database
}

// benchCorpus returns the fixed, deterministic bench corpus: the paper's
// five examples plus one generated database per shape at pinned
// seed/size, so successive runs measure identical work.
func benchCorpus() []benchEntry {
	mk := func(shape gen.Shape, name string, n int) benchEntry {
		rng := rand.New(rand.NewSource(1))
		return benchEntry{name, gen.Uniform(rng, gen.Schemes(shape, n), 6, 4)}
	}
	return []benchEntry{
		{"example1", paperex.Example1()},
		{"example2", paperex.Example2()},
		{"example3", paperex.Example3()},
		{"example4", paperex.Example4()},
		{"example5", paperex.Example5()},
		mk(gen.Chain, "chain5", 5),
		mk(gen.Star, "star5", 5),
		mk(gen.Cycle, "cycle5", 5),
		mk(gen.Clique, "clique4", 4),
	}
}

// RunBench measures the whole corpus and returns the report. Progress
// lines go to w. The context bounds the serve section's load run and
// drain.
func RunBench(ctx context.Context, w io.Writer) (*BenchReport, error) {
	rep := &BenchReport{Schema: obs.BenchSchema, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, entry := range benchCorpus() {
		c, err := benchOne(entry.name, entry.db)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", entry.name, err)
		}
		fmt.Fprintf(w, "bench %-10s n=%d  τ(all)=%-6d wall=%-10s states/s=%.0f\n",
			c.Name, c.Relations, c.Tau["all"],
			time.Duration(c.WallNS).Round(time.Microsecond), c.StatesPerSec)
		rep.Cases = append(rep.Cases, c)
		rep.Totals.Cases++
		rep.Totals.Tuples += c.Tuples
		rep.Totals.States += c.States
		rep.Totals.WallNS += c.WallNS
	}
	rep.Kernel = benchKernel()
	for _, k := range rep.Kernel {
		fmt.Fprintf(w, "kernel %-12s %8d ns/op %8d B/op %6d allocs/op  partitions=%d\n",
			k.Name, k.NsPerOp, k.BytesPerOp, k.AllocsPerOp, k.Partitions)
	}
	var err error
	if rep.Serve, err = benchServe(ctx, w); err != nil {
		return nil, err
	}
	if rep.Planning, err = benchPlanning(w); err != nil {
		return nil, err
	}
	if rep.Acyclic, err = benchAcyclic(w); err != nil {
		return nil, err
	}
	return rep, nil
}

// kernelRel builds a deterministic relation for the kernel section.
func kernelRel(name, schema string, rows, domain int) *relation.Relation {
	r := relation.New(name, relation.SchemaFromString(schema))
	w := r.Schema().Len()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < rows; i++ {
		row := make([]relation.Value, w)
		for j := range row {
			row[j] = relation.Value(fmt.Sprintf("v%d", rng.Intn(domain)))
		}
		r.InsertRow(row)
	}
	return r
}

// measureKernel times op over iters iterations, reading the runtime's
// monotone malloc counters for per-op allocation averages. The warm-up
// call keeps one-time costs (dictionary interning, map growth to
// steady-state sizes) out of the measurement, matching how the
// testing-package benchmarks in internal/relation report the kernel.
func measureKernel(name string, iters int, op func() *relation.Relation) KernelBench {
	last := op() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		last = op()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	k := KernelBench{
		Name:        name,
		Iters:       iters,
		NsPerOp:     elapsed.Nanoseconds() / int64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
	}
	if last != nil {
		k.Partitions = last.JoinPartitions()
	}
	return k
}

// benchKernel measures the relation kernel's hot operations on fixed
// inputs: the sequential and the parallel partitioned join, the
// semijoin, and deduplicating insertion.
func benchKernel() []KernelBench {
	seqR := kernelRel("R", "AB", 1000, 100)
	seqS := kernelRel("S", "BC", 1000, 100)
	// 2×4200 input rows crosses the kernel's parallel threshold; the
	// wide domain keeps the output small so the measurement weighs the
	// partition/build/probe machinery, not output copying.
	parR := kernelRel("R", "AB", 4200, 4000)
	parS := kernelRel("S", "BC", 4200, 4000)
	insertRows := kernelRel("I", "AB", 2000, 300).Rows()
	insertSchema := relation.SchemaFromString("AB")
	return []KernelBench{
		measureKernel("join-seq", 20, func() *relation.Relation {
			return relation.Join(seqR, seqS)
		}),
		measureKernel("join-par", 20, func() *relation.Relation {
			return relation.Join(parR, parS)
		}),
		measureKernel("semijoin", 20, func() *relation.Relation {
			return relation.Semijoin(seqR, seqS)
		}),
		measureKernel("insert-dedup", 20, func() *relation.Relation {
			r := relation.New("I", insertSchema)
			for _, row := range insertRows {
				r.InsertRow(row)
			}
			return r
		}),
	}
}

// benchOne analyzes one database under a fresh recorder and collapses
// the recorder's counters into the case record.
func benchOne(name string, db *database.Database) (BenchCase, error) {
	rec := obs.NewRecorder()
	start := time.Now()
	an, err := core.AnalyzeEvaluator(database.NewEvaluator(db).WithRecorder(rec))
	if err != nil {
		return BenchCase{}, err
	}
	wall := time.Since(start)

	snap := rec.Snapshot()
	c := BenchCase{
		Name:      name,
		Relations: db.Len(),
		Tau:       map[string]int{},
		WallNS:    wall.Nanoseconds(),
		Tuples:    snap.Counters["eval.tuples"],
		States:    snap.Counters["eval.states"] + snap.Counters["dp.states"],
		Counters:  snap.Counters,
	}
	for _, res := range an.Results {
		c.Tau[res.Space.String()] = res.Cost
	}
	if c.WallNS > 0 {
		c.StatesPerSec = float64(c.States) / (float64(c.WallNS) / 1e9)
	}
	return c, nil
}

// WriteBench writes the report as indented, schema-versioned JSON.
func WriteBench(w io.Writer, rep *BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// DecodeBench reads a bench report, rejecting unknown fields and wrong
// schemas.
func DecodeBench(r io.Reader) (*BenchReport, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rep BenchReport
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: decoding JSON: %w", err)
	}
	if rep.Schema != obs.BenchSchema {
		return nil, fmt.Errorf("bench: schema %q, want %q", rep.Schema, obs.BenchSchema)
	}
	return &rep, nil
}

// ValidateBench checks a report's internal consistency — the contract
// the CI bench job gates on: at least one case, every case carrying τ
// optima and positive wall time, and totals that match the sum of the
// cases.
func ValidateBench(rep *BenchReport) error {
	if rep.Schema != obs.BenchSchema {
		return fmt.Errorf("bench: schema %q, want %q", rep.Schema, obs.BenchSchema)
	}
	if len(rep.Cases) == 0 {
		return fmt.Errorf("bench: no cases")
	}
	var tot BenchTotals
	for _, c := range rep.Cases {
		if c.Name == "" {
			return fmt.Errorf("bench: case with empty name")
		}
		if len(c.Tau) == 0 {
			return fmt.Errorf("bench: case %s has no τ optima", c.Name)
		}
		if c.WallNS <= 0 {
			return fmt.Errorf("bench: case %s has non-positive wall time", c.Name)
		}
		if c.Tuples < 0 || c.States <= 0 {
			return fmt.Errorf("bench: case %s has implausible tuple/state counts", c.Name)
		}
		tot.Cases++
		tot.Tuples += c.Tuples
		tot.States += c.States
		tot.WallNS += c.WallNS
	}
	if tot != rep.Totals {
		return fmt.Errorf("bench: totals %+v do not match the sum of cases %+v", rep.Totals, tot)
	}
	if len(rep.Kernel) == 0 {
		return fmt.Errorf("bench: no kernel micro-benchmarks")
	}
	seenPartitioned := false
	for _, k := range rep.Kernel {
		if k.Name == "" {
			return fmt.Errorf("bench: kernel entry with empty name")
		}
		if k.Iters <= 0 || k.NsPerOp <= 0 {
			return fmt.Errorf("bench: kernel %s has non-positive iteration count or timing", k.Name)
		}
		if k.BytesPerOp < 0 || k.AllocsPerOp < 0 || k.Partitions < 0 {
			return fmt.Errorf("bench: kernel %s has negative allocation or partition counts", k.Name)
		}
		if k.Partitions > 0 {
			seenPartitioned = true
		}
	}
	if !seenPartitioned {
		return fmt.Errorf("bench: no kernel case exercised the partitioned parallel join")
	}
	if err := validateServeBench(rep.Serve); err != nil {
		return err
	}
	if err := validatePlanningBench(rep.Planning); err != nil {
		return err
	}
	return validateAcyclicBench(rep.Acyclic)
}
