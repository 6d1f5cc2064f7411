package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"c3/internal/parallel"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one cold start does not decide it.
const setupReps = 15

// plan is a workload's set-up product: its job list and the expected
// output of every job.
type plan struct {
	workload string
	input    int64
	jobs     []job
	expected map[string]string
}

// setup generates the inputs from the seed, synthesizes the compound
// table of every configuration the jobs use and loads the expected
// outputs.
func setup(workload, expectedDir string, seed int64) (*plan, error) {
	in := inputSeed(seed)
	jobs, err := buildJobs(workload, in)
	if err != nil {
		return nil, err
	}
	if err := synthesize(tableConfigs(jobs)); err != nil {
		return nil, err
	}
	exp, err := loadExpected(expectedDir, workload, in)
	if err != nil {
		return nil, err
	}
	return &plan{workload: workload, input: in, jobs: jobs, expected: exp}, nil
}

// round is one pass over the job list.
type round struct {
	traced   bool
	from     time.Duration // start, on the tracer's clock (traced rounds)
	wall     time.Duration
	cpu      time.Duration
	rt       rtSample
	results  []result
	failures []error // per result; nil = output matched the oracle
}

// runRound runs every job once on a closed loop of workers goroutines:
// each worker takes the next job when its last one finishes.
func runRound(p *plan, workers int, tr *tracer, idx int) round {
	r := round{traced: tr != nil}
	if tr != nil {
		r.from = time.Since(tr.epoch)
	}
	u0, rt0, t0 := readUsage(), readRuntime(), time.Now()
	res, errs := parallel.MapAll(context.Background(), workers, len(p.jobs), func(i int) (result, error) {
		return runJob(&p.jobs[i], tr, idx*len(p.jobs)+i), nil
	})
	r.wall = time.Since(t0)
	r.cpu = readUsage().cpu - u0.cpu
	r.rt = readRuntime().sub(rt0)
	for i := range res {
		if errs[i] != nil { // a panic the pool captured
			res[i] = result{key: p.jobs[i].key, err: errs[i]}
		}
	}
	r.results = res
	r.failures = make([]error, len(res))
	for i := range res {
		r.failures[i] = p.check(&res[i])
	}
	return r
}

// check is the oracle: a job passes when it returned without error and
// its digest equals the recorded one.
func (p *plan) check(r *result) error {
	if r.err != nil {
		return r.err
	}
	want, ok := p.expected[r.key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no expected output recorded", r.key)
	case r.digest != want:
		return fmt.Errorf("%s: output digest %s, expected %s", r.key, r.digest, want)
	}
	return nil
}

// runRounds repeats rounds until the next one would end past budget. With
// tr set, odd rounds are traced and even ones are not, so tracing overhead
// is measured in one process; at least one of each runs.
func runRounds(p *plan, workers int, tr *tracer, budget time.Duration) []round {
	minRounds := 1
	if tr != nil {
		minRounds = 2
	}
	var rounds []round
	begin := time.Now()
	for i := 0; ; i++ {
		var rtr *tracer
		if tr != nil && i%2 == 1 {
			rtr = tr
		}
		rounds = append(rounds, runRound(p, workers, rtr, i))
		walls := make([]float64, len(rounds))
		for k, r := range rounds {
			walls[k] = r.wall.Seconds()
		}
		next := time.Duration(median(walls) * float64(time.Second))
		if len(rounds) >= minRounds && time.Since(begin)+next > budget {
			return rounds
		}
	}
}

// tally counts attempted and failed jobs over all rounds.
func tally(rounds []round) (attempted, failed int, first error) {
	for _, r := range rounds {
		for _, f := range r.failures {
			attempted++
			if f != nil {
				failed++
				if first == nil {
					first = f
				}
			}
		}
	}
	return attempted, failed, first
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed, not part of the JSON result
}

// endToEnd derives the end-to-end metrics from untraced rounds.
func endToEnd(setups []time.Duration, rounds []round, peakRSSKiB int64) []metric {
	var walls, cpus, lat []float64
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		for _, res := range r.results {
			lat = append(lat, float64(res.latency.Nanoseconds())/1e6)
		}
	}
	return []metric{
		{"setup_s", median(seconds(setups)), "s", fmt.Sprintf("median of %d set-ups", len(setups))},
		{"wall_s", median(walls), "s", fmt.Sprintf("median of %d rounds", len(walls))},
		{"cpu_s", median(cpus), "s", fmt.Sprintf("user+sys, median of %d rounds", len(cpus))},
		{"job_p50_ms", median(lat), "ms", fmt.Sprintf("%d jobs", len(lat))},
		{"peak_rss_mb", float64(peakRSSKiB) * 1024 / 1e6, "MB", "process peak resident set"},
	}
}

// reported derives the metrics the JSON result leaves out because they do
// not apply to every workload or can be 0 (see README.md): they are
// printed with every run.
func reported(p *plan, rounds []round, attempted, failed int) []metric {
	var lat, opsPerS []float64
	for _, r := range rounds {
		var ops uint64
		for _, res := range r.results {
			lat = append(lat, float64(res.latency.Nanoseconds())/1e6)
			ops += res.counters["cpu.retired"]
		}
		opsPerS = append(opsPerS, float64(ops)/r.wall.Seconds())
	}
	out := []metric{{"error_rate", float64(failed) / float64(max(attempted, 1)), "ratio",
		fmt.Sprintf("%d failed of %d attempted", failed, attempted)}}
	// A percentile needs at least ten samples beyond it.
	if len(lat) >= 100 {
		out = append(out, metric{"job_p90_ms", quantile(lat, 0.9), "ms", fmt.Sprintf("%d jobs", len(lat))})
	}
	if p.jobs[0].kind != simKind {
		return out
	}
	g := slowdownGeomean(rounds[0].results)
	out = append(out, metric{"sim_ops_per_s", median(opsPerS), "1/s", "retired simulated memory ops per host second"})
	out = append(out, metric{"sim_slowdown_geomean", g, "ratio", "simulated time, MESI-CXL-MESI / MESI-MESI-MESI"})
	if p.workload == "sweep-short" {
		out = append(out, metric{"paper_err_pp", math.Abs(100*(g-1) - 5.5), "pp",
			"distance from the paper's 5.5% mean Fig. 10 slowdown, at reduced scale"})
	}
	return out
}

// slowdownGeomean is the geometric mean over kernels of simulated time on
// MESI-CXL-MESI over MESI-MESI-MESI (ARM cores), Fig. 10's headline.
func slowdownGeomean(results []result) float64 {
	base := map[string]float64{}
	cxl := map[string]float64{}
	for _, r := range results {
		if r.err != nil || r.run.Config == "" {
			continue
		}
		switch r.run.Config {
		case "MESI-MESI-MESI/ARM-ARM":
			base[r.run.Name] = float64(r.run.Time)
		case "MESI-CXL-MESI/ARM-ARM":
			cxl[r.run.Name] = float64(r.run.Time)
		}
	}
	logSum, n := 0.0, 0
	for k, b := range base {
		if c, ok := cxl[k]; ok && b > 0 {
			logSum += math.Log(c / b)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
