package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"c3/internal/litmus"
	"c3/internal/stats"
	"c3/internal/system"
	"c3/internal/verif"
	"c3/internal/workload"
)

// simEventLimit mirrors workload.RunOn's default wedge guard.
const simEventLimit = 200_000_000

// result is what one job produced: its oracle digest plus the counts the
// per-layer metrics are derived from.
type result struct {
	key     string
	digest  string
	err     error
	latency time.Duration // host time of the public call(s)

	// sim jobs
	run      stats.Run
	events   uint64
	counters map[string]uint64

	// check jobs
	verdict                                     string
	outcomes                                    []string
	states, clones, builds, porSkips, symMerges uint64

	// soak jobs
	iters, hangs, poisoned, forbidden int
}

// runJob executes one job. With tr == nil it makes exactly the public
// call a tool makes; with a tracer it records a span around every public
// call it makes into a layer, under a root span for the job.
func runJob(j *job, tr *tracer, jobID int) result {
	var r result
	tr.span("job "+j.key, "bench", 0, jobID, func(root int64) {
		switch j.kind {
		case simKind:
			r = runSim(j, tr, root, jobID)
		case checkKind:
			r = runCheck(j, tr, root, jobID)
		case soakKind:
			r = runSoak(j, tr, root, jobID)
		}
	})
	r.key = j.key
	return r
}

func runConfig(j *job) (workload.RunConfig, error) {
	spec, ok := workload.ByName(j.kernel)
	if !ok {
		return workload.RunConfig{}, fmt.Errorf("unknown kernel %q", j.kernel)
	}
	return workload.RunConfig{
		Spec: spec, Global: j.global, Locals: j.locals, MCMs: j.mcms,
		CoresPerCluster: j.cores, OpsScale: j.scale, Seed: j.seed,
	}, nil
}

func runSim(j *job, tr *tracer, root int64, jobID int) result {
	cfg, err := runConfig(j)
	if err != nil {
		return result{err: err}
	}
	var (
		run stats.Run
		sys *system.System
	)
	start := time.Now()
	if tr == nil {
		run, sys, err = workload.RunOn(cfg)
	} else {
		run, sys, err = runOnTraced(cfg, tr, root, jobID)
	}
	r := result{latency: time.Since(start), err: err}
	if err != nil {
		return r
	}
	r.run, r.events = run, sys.K.Stepped
	var reg bytes.Buffer
	if err := sys.Metrics().RenderJSON(&reg); err != nil {
		r.err = fmt.Errorf("render metrics: %w", err)
		return r
	}
	r.digest = digest(fmt.Sprintf("%s|%s|%d|%+v\n", run.Name, run.Config, run.Time, run.Miss), reg.String())
	r.counters, r.err = layerCounters(reg.Bytes())
	return r
}

// runOnTraced is workload.RunOn decomposed into the public calls it is
// made of, so each layer gets its own span. The oracle holds it to
// byte-identical results with the untraced call.
func runOnTraced(cfg workload.RunConfig, tr *tracer, root int64, jobID int) (stats.Run, *system.System, error) {
	spec := cfg.Spec
	if err := spec.Validate(); err != nil {
		return stats.Run{}, nil, err
	}
	spec.Ops = max(int(float64(spec.Ops)*cfg.OpsScale), 1)
	var (
		sys *system.System
		err error
	)
	tr.span("system.New", "system", root, jobID, func(int64) {
		sys, err = system.New(system.Config{
			Global: cfg.Global, Seed: cfg.Seed,
			Clusters: []system.ClusterConfig{
				{Protocol: cfg.Locals[0], MCM: cfg.MCMs[0], Cores: cfg.CoresPerCluster},
				{Protocol: cfg.Locals[1], MCM: cfg.MCMs[1], Cores: cfg.CoresPerCluster},
			},
		})
	})
	if err != nil {
		return stats.Run{}, nil, err
	}
	var miss stats.MissBreakdown
	tr.span("workload.NewSource", "workload", root, jobID, func(int64) {
		total := 2 * cfg.CoresPerCluster
		for id := 0; id < total; id++ {
			src := workload.NewSource(&spec, id, total, cfg.Seed+101)
			c := sys.AttachSource(id/cfg.CoresPerCluster, id%cfg.CoresPerCluster, src)
			c.Observe = miss.Observe
		}
	})
	var completed bool
	tr.span("System.Run", "sim", root, jobID, func(int64) { completed = sys.Run(simEventLimit) })
	if !completed {
		return stats.Run{}, sys, fmt.Errorf("workload %s (%s): wedged after %d events",
			spec.Name, sys.Proto(), uint64(simEventLimit))
	}
	return stats.Run{
		Name:   spec.Name,
		Config: fmt.Sprintf("%s/%v-%v", sys.Proto(), cfg.MCMs[0], cfg.MCMs[1]),
		Time:   sys.Time(),
		Miss:   miss,
	}, sys, nil
}

// layerCounters folds the per-node counters of a system.Metrics JSON
// render into per-layer totals ("c3.0.stalled" + "c3.1.stalled" ->
// "c3.stalled"; "l1.<c>.<i>.misses" -> "l1.misses").
func layerCounters(regJSON []byte) (map[string]uint64, error) {
	var reg struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(regJSON, &reg); err != nil {
		return nil, fmt.Errorf("parse metrics: %w", err)
	}
	out := map[string]uint64{}
	for name, v := range reg.Counters {
		parts := strings.Split(name, ".")
		switch {
		case parts[0] == "c3" && len(parts) == 3:
			out["c3."+parts[2]] += v
		case parts[0] == "l1" && len(parts) == 4:
			out["l1."+parts[3]] += v
		case parts[0] == "core" && len(parts) == 4:
			out["cpu."+parts[3]] += v
		case parts[0] == "dcoh" || parts[0] == "hdir":
			out[name] += v
		case name == "net.msgs.total" || name == "net.bytes.total":
			out[name] += v
		}
	}
	return out, nil
}

func checkModel(j *job) (verif.ModelConfig, error) {
	t, ok := litmus.ByName(j.test)
	if !ok {
		return verif.ModelConfig{}, fmt.Errorf("unknown litmus test %q", j.test)
	}
	return verif.ModelConfig{Test: t, Locals: j.locals, Global: j.global,
		MCMs: j.mcms, Sync: litmus.SyncFull, TinyLLC: j.tiny}, nil
}

func runCheck(j *job, tr *tracer, root int64, jobID int) result {
	mcfg, err := checkModel(j)
	if err != nil {
		return result{err: err}
	}
	var rep *verif.Report
	start := time.Now()
	tr.span("verif.Check", "verif", root, jobID, func(int64) {
		// The benchmark's pool owns the parallelism: one checker worker.
		rep, err = verif.Check(mcfg, verif.CheckerConfig{Workers: 1})
	})
	r := result{latency: time.Since(start)}
	verdict := "pass"
	var cex *verif.Counterexample
	switch {
	case errors.As(err, &cex):
		verdict = "fail: " + cex.Kind.String() + ": " + cex.Msg
	case err != nil:
		r.err = err
		return r
	case rep.Truncated:
		verdict = "truncated"
	}
	var outs []string
	if rep != nil {
		r.states, r.clones, r.builds = rep.States, rep.Clones, rep.Builds
		r.porSkips, r.symMerges = rep.PORSkips, rep.SymmetryMerges
		for o := range rep.Outcomes {
			outs = append(outs, o)
		}
		sort.Strings(outs)
	}
	r.verdict, r.outcomes = verdict, outs
	r.digest = checkDigest(verdict, outs)
	return r
}

// checkDigest is the oracle form of a check result: its verdict and
// sorted outcome list. State counts are deliberately left out, so a
// change to the reductions that keeps the verdict and outcomes passes.
func checkDigest(verdict string, outcomes []string) string {
	return digest(verdict, strings.Join(outcomes, "\n"))
}

func runSoak(j *job, tr *tracer, root int64, jobID int) result {
	var (
		rep *litmus.SoakReport
		err error
	)
	start := time.Now()
	tr.span("litmus.RunSoak", "litmus", root, jobID, func(int64) {
		rep, err = litmus.RunSoak(litmus.SoakConfig{
			Tests: []string{j.test}, Plans: []litmus.NamedPlan{j.plan},
			Seeds: []int64{j.seed}, Iters: j.iters, Workers: 1,
		})
	})
	r := result{latency: time.Since(start), err: err}
	if err != nil {
		return r
	}
	if len(rep.Runs) != 1 {
		r.err = fmt.Errorf("soak %s: %d rows, want 1", j.key, len(rep.Runs))
		return r
	}
	row := rep.Runs[0]
	r.iters, r.hangs, r.poisoned, r.forbidden = row.Iters, row.Hangs, row.Poisoned, row.Forbidden
	if v := rep.Verdict(); v != "pass" || row.Forbidden != 0 {
		r.err = fmt.Errorf("soak %s: verdict %s, %d forbidden outcomes", j.key, v, row.Forbidden)
		return r
	}
	r.digest = digest(rep.Render())
	return r
}

// digest is the short hex SHA-256 of its parts.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
