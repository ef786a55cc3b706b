package experiments

import (
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
)

// The bench pipeline: a fixed corpus (the paper's five examples plus
// deterministic generated shapes) is analyzed under a fresh recorder per
// case, and the timings and engine counters are emitted as
// schema-versioned JSON (BENCH_joinopt.json). CI runs this on every push
// and fails if the report does not validate, so performance numbers stay
// machine-readable and the observability plumbing stays honest. Every
// leaf but the timings and goMaxProcs is a fact of the engine, and a
// test holds the committed file to it: a change that moves τ or a
// counter on purpose regenerates the file with `experiments -bench`,
// and the diff is the record.

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
	// Counters is the case's full counter snapshot.
	Counters map[string]int64 `json:"counters"`
}

// BenchReport is the machine-readable output of the bench pipeline.
type BenchReport struct {
	// Schema is obs.BenchSchema.
	Schema string `json:"schema"`
	// GoMaxProcs records the GOMAXPROCS the bench ran at.
	GoMaxProcs int `json:"goMaxProcs"`
	// Cases lists one measurement per corpus entry, in run order.
	Cases []BenchCase `json:"cases"`
	// Planning is the estimate-driven planning measurement (schema v6):
	// exact-vs-plan-only walls and per-subspace regret.
	Planning *PlanningBench `json:"planning"`
	// Acyclic is the Yannakakis fast-path measurement (schema v7):
	// reduction-plus-join τ and max intermediate against the best
	// binary-join subspace on a connected α-acyclic corpus.
	Acyclic *AcyclicBench `json:"acyclic"`
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
// lines go to w.
func RunBench(w io.Writer) (*BenchReport, error) {
	rep := &BenchReport{Schema: obs.BenchSchema, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, entry := range benchCorpus() {
		c, err := benchOne(entry.name, entry.db)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", entry.name, err)
		}
		fmt.Fprintf(w, "bench %-10s n=%d  τ(all)=%-6d states=%-6d wall=%s\n",
			c.Name, c.Relations, c.Tau["all"], c.States,
			time.Duration(c.WallNS).Round(time.Microsecond))
		rep.Cases = append(rep.Cases, c)
	}
	var err error
	if rep.Planning, err = benchPlanning(w); err != nil {
		return nil, err
	}
	if rep.Acyclic, err = benchAcyclic(w); err != nil {
		return nil, err
	}
	return rep, nil
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
// optima and positive wall time, and valid planning and acyclic
// sections.
func ValidateBench(rep *BenchReport) error {
	if rep.Schema != obs.BenchSchema {
		return fmt.Errorf("bench: schema %q, want %q", rep.Schema, obs.BenchSchema)
	}
	if len(rep.Cases) == 0 {
		return fmt.Errorf("bench: no cases")
	}
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
	}
	if err := validatePlanningBench(rep.Planning); err != nil {
		return err
	}
	return validateAcyclicBench(rep.Acyclic)
}
