package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// env is what a result was measured under; -compare refuses to compare
// results whose env differs.
type env struct {
	GoMaxProcs int     `json:"goMaxProcs"`
	NumCPU     int     `json:"numCPU"`
	GoVersion  string  `json:"goVersion"`
	Rate       float64 `json:"rate"`
	Seconds    float64 `json:"seconds"`
	Warmup     float64 `json:"warmup"`
	LimitMS    float64 `json:"limitMs"`
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's full record, as -out appends it.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Env       env                    `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Samples   map[string]int         `json:"samples"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Wall holds the wall-clock figures reported beside the metrics:
	// latency percentiles from each op's due time, the median set-up, and
	// the dispatcher's lateness.
	Wall map[string]float64 `json:"wall"`
}

// line is the run's last line of standard output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// set records a metric under its spec'd unit.
func (r *result) set(specs []metricSpec, name string, v float64) {
	for _, s := range specs {
		if s.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: s.Unit}
			return
		}
	}
	panic("joinbench: metric " + name + " is not in the spec")
}

// reported returns the metrics the run's last line carries: the
// end-to-end set untraced, the per-layer set traced. ok is false when
// one of them is missing.
func (r *result) reported() (map[string]metricValue, bool) {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	out := map[string]metricValue{}
	for _, s := range specs {
		v, ok := r.Metrics[s.Name]
		if !ok {
			return nil, false
		}
		out[s.Name] = v
	}
	return out, true
}

// writeReport prints the human-readable report.
func writeReport(w io.Writer, r *result) {
	e := r.Env
	fmt.Fprintf(w, "joinbench %s seed=%d trace=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		r.Workload, r.Seed, r.Trace, e.GoMaxProcs, e.NumCPU, e.GoVersion)
	load := "closed loop, 1 caller"
	if e.Rate > 0 {
		load = fmt.Sprintf("open loop %g/s, 1 worker", e.Rate)
	}
	fmt.Fprintf(w, "  %s, warm-up %gs, measured %gs, latency limit %gms\n", load, e.Warmup, e.Seconds, e.LimitMS)
	fmt.Fprintf(w, "  attempted %d, failed %d, error_ratio %g\n", r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "  %-38s %14.6g %s", name, v.Value, v.Unit)
		if n, ok := r.Samples[name]; ok {
			fmt.Fprintf(w, "  (%d samples)", n)
		}
		fmt.Fprintln(w)
	}
	names = names[:0]
	for name := range r.Wall {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "  wall clock (not gated):")
	for _, name := range names {
		fmt.Fprintf(w, "    %-36s %14.6g\n", name, r.Wall[name])
	}
}

// appendRecord appends r as one JSON line to path.
func appendRecord(path string, r *result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a JSON Lines file of results.
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func currentEnv(cfg config) env {
	return env{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Rate:       cfg.wl.Rate,
		Seconds:    cfg.dur.Seconds(),
		Warmup:     cfg.warmup.Seconds(),
		LimitMS:    ms(cfg.wl.Limit),
	}
}
