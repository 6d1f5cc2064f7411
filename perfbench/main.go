// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (sim-long, sweep-short, check or soak) as a closed loop of
// jobs through the public entry points the tools use, checks every output
// against the recorded expected outputs, and prints the metrics, ending
// with one JSON line. From the repository root:
//
//	python3 perfbench/run.py --workload sweep-short --seed 1 --seconds 25 --trace 0
//
// run.py builds this package and runs it there. --trace 0 reports the
// end-to-end metrics; --trace 1 is the separate traced run that reports
// the per-layer metrics and writes the spans. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed; seeds 1-16 are distinct inputs, others wrap onto them")
	secs := fs.Float64("seconds", 25, "measurement budget in seconds; rounds stop before it is exceeded")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spansDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes spans to")
	record := fs.Bool("record", false, "run every input once and write the expected outputs instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 || *secs <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds > 0")
		return 2
	}
	if _, err := buildJobs(*name, 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *record {
		if err := recordExpected(expectedDir, *name, workers); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := measure(os.Stdout, config{
		workload: *name, seed: *seed, budget: time.Duration(*secs * float64(time.Second)),
		traced: *traceMode == 1, spansDir: *spansDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// expectedDir holds the recorded outputs, relative to the repository root.
var expectedDir = filepath.Join("perfbench", "expected")

// workers is the closed loop's size: one job per CPU the runtime uses.
var workers = runtime.GOMAXPROCS(0)

type config struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	spansDir string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the final JSON line.
type outcome struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// measure runs the benchmark and prints the human-readable report to w.
// It returns an error only when the benchmark could not run at all.
func measure(w io.Writer, cfg config) (*outcome, error) {
	fp := hostFingerprint(cfg.seed)
	var (
		p      *plan
		setups []time.Duration
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if p, err = setup(cfg.workload, expectedDir, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d input=%d trace=%v jobs/round=%d workers=%d budget=%v\n",
		cfg.workload, cfg.seed, p.input, cfg.traced, len(p.jobs), workers, cfg.budget)
	fp.print(w)

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	rounds := runRounds(p, workers, tr, cfg.budget)
	fmt.Fprint(w, "rounds: wall_s")
	for _, r := range rounds {
		mark := ""
		if r.traced {
			mark = "t"
		}
		fmt.Fprintf(w, " %.3f%s", r.wall.Seconds(), mark)
	}
	fmt.Fprintln(w)
	attempted, failed, firstFail := tally(rounds)
	if firstFail != nil {
		fmt.Fprintf(w, "oracle: %d of %d jobs failed; first: %v\n", failed, attempted, firstFail)
	} else {
		fmt.Fprintf(w, "oracle: all %d jobs matched the expected outputs\n", attempted)
	}
	out := &outcome{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}

	var gated, extra []metric
	if cfg.traced {
		pc, err := runProbes(cfg.workload, p.jobs, p.input, tr)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		var self map[string]time.Duration
		gated, self = perLayer(p, rounds, tr.spans, pc, workers)
		printDecomposition(w, p, rounds, self, gated, workers)
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeChrome(path, tr.spans); err != nil {
			return nil, fmt.Errorf("spans: %w", err)
		}
		fmt.Fprintf(w, "spans: %d written to %s (Chrome/Perfetto trace-event JSON)\n", len(tr.spans), path)
	} else {
		gated = endToEnd(setups, rounds, readUsage().maxRSS)
		extra = reported(p, rounds, attempted, failed)
	}
	for _, m := range gated {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	for _, m := range append(gated, extra...) {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Fprintf(w, "metric %-24s %14.6g %-10s%s\n", m.name, m.value, m.unit, note)
	}
	return out, nil
}

func (f fingerprint) print(w io.Writer) {
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s source=%s seed=%d input=%d\n",
		f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Revision, f.Source, f.Seed, f.InputSeed)
}
