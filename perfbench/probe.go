package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"c3/internal/cache"
	"c3/internal/cpu"
	"c3/internal/gen"
	"c3/internal/litmus"
	"c3/internal/ssp"
	"c3/internal/system"
	"c3/internal/trace"
	"c3/internal/verif"
)

// Probes time layer calls the jobs make only inside other public calls
// (system.New inside litmus.Run, gen.Generate and cache.New inside
// system.New, the checker's Clone/Step/Hash inside verif.Check). Each
// probe calls the layer directly, on the shapes the workload uses, and
// records a span per call. They run after the timed rounds.
const (
	genReps    = 10
	llcReps    = 10
	buildReps  = 3
	walkSteps  = 200
	llcBytes   = 4 << 20 // Table III CXL cache
	llcWays    = 8
	probeJobID = -1 // marks probe spans, which no round owns
)

// verifCost is the mean host time of one checker call of each kind.
type verifCost struct {
	build, clone, step, hash, release time.Duration
}

type probeCosts struct {
	genUS, llcNewUS float64
	// soakBuildMS is system.New + Release on the soak machine shapes.
	soakBuildMS float64
	// verif is keyed by check job key.
	verif map[string]verifCost
}

func meanUS(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(n)
}

func runProbes(name string, jobs []job, in int64, tr *tracer) (probeCosts, error) {
	var pc probeCosts
	var err error
	tr.span("probe "+name, "bench", 0, probeJobID, func(root int64) {
		var total time.Duration
		cfgs := tableConfigs(jobs)
		for _, c := range cfgs {
			ls, _ := ssp.Local(c[0])
			gs, _ := ssp.Global(c[1])
			for i := 0; i < genReps; i++ {
				total += tr.span("gen.Generate", "gen", root, probeJobID, func(int64) {
					if _, gerr := gen.Generate(ls, gs); gerr != nil && err == nil {
						err = gerr
					}
				})
			}
		}
		pc.genUS = meanUS(total, genReps*len(cfgs))

		total = 0
		for i := 0; i < llcReps; i++ {
			total += tr.span("cache.New", "cache", root, probeJobID, func(int64) {
				cache.New(llcBytes, llcWays).Release()
			})
		}
		pc.llcNewUS = meanUS(total, llcReps)

		switch name {
		case "soak":
			pc.soakBuildMS, err = probeSoakBuild(jobs, tr, root)
		case "check":
			pc.verif, err = probeVerif(jobs, in, tr, root)
		}
	})
	return pc, err
}

// probeSoakBuild builds and releases the machine one litmus iteration
// builds, for every (test, plan) shape of the soak jobs: the fault
// fabric and a watchdog-armed tracer, as litmus.Run's HangWatch mode
// configures them.
func probeSoakBuild(jobs []job, tr *tracer, root int64) (float64, error) {
	var total time.Duration
	n := 0
	seen := map[string]bool{}
	for _, j := range jobs {
		shape := j.test + "/" + j.plan.Name
		if seen[shape] {
			continue
		}
		seen[shape] = true
		t, ok := litmus.ByName(j.test)
		if !ok {
			return 0, fmt.Errorf("unknown litmus test %q", j.test)
		}
		per := [2]int{1, 0} // the collector thread sits on cluster 0
		for i := range t.Threads {
			per[i%2]++
		}
		for rep := 0; rep < buildReps; rep++ {
			seed := j.seed + int64(rep)*7919
			plan := j.plan.Plan
			plan.Seed ^= uint64(seed) * 0x9e3779b97f4a7c15
			core := func(m cpu.MCM) cpu.Config {
				cc := cpu.DefaultConfig(m)
				cc.IssueJitter, cc.DrainJitter, cc.Seed = 1200, 900, seed
				return cc
			}
			var err error
			total += tr.span("system.New+Release", "system", root, probeJobID, func(int64) {
				var sys *system.System
				sys, err = system.New(system.Config{
					Global: j.global, Seed: seed, Tracer: trace.New(),
					WatchdogAge: trace.DefaultHangAge, Faults: &plan,
					Clusters: []system.ClusterConfig{
						{Protocol: j.locals[0], MCM: j.mcms[0], Cores: per[0], Core: core(j.mcms[0])},
						{Protocol: j.locals[1], MCM: j.mcms[1], Cores: per[1], Core: core(j.mcms[1])},
					},
				})
				if err == nil {
					sys.Release()
				}
			})
			if err != nil {
				return 0, err
			}
			n++
		}
	}
	return meanUS(total, n) / 1e3, nil
}

// probeVerif walks each check shape's state graph along a seeded random
// path, timing Build(+Start), Clone, Step, Hash and Release the way the
// checker uses them: clone the state, deliver one message to the clone,
// fingerprint it, retire the parent.
func probeVerif(jobs []job, in int64, tr *tracer, root int64) (map[string]verifCost, error) {
	out := map[string]verifCost{}
	for _, j := range jobs {
		mcfg, err := checkModel(&j)
		if err != nil {
			return nil, err
		}
		h := fnv.New64a()
		h.Write([]byte(j.key))
		rng := rand.New(rand.NewPCG(uint64(in), h.Sum64()))
		var sum verifCost
		builds, calls := 0, 0
		var m *verif.Model
		build := func() error {
			var berr error
			sum.build += tr.span("verif.Build", "verif", root, probeJobID, func(int64) {
				if m, berr = verif.Build(mcfg); berr == nil {
					m.Start()
				}
			})
			builds++
			return berr
		}
		if err := build(); err != nil {
			return nil, err
		}
		for step := 0; step < walkSteps; step++ {
			acts := m.Fabric.Enabled()
			if len(acts) == 0 {
				m.Release()
				if err := build(); err != nil {
					return nil, err
				}
				continue
			}
			a := acts[rng.IntN(len(acts))]
			var c *verif.Model
			sum.clone += tr.span("Model.Clone", "verif", root, probeJobID, func(int64) { c = m.Clone() })
			sum.step += tr.span("Model.Step", "verif", root, probeJobID, func(int64) { c.Step(a) })
			sum.hash += tr.span("Model.Hash", "verif", root, probeJobID, func(int64) { c.Hash() })
			sum.release += tr.span("Model.Release", "verif", root, probeJobID, func(int64) { m.Release() })
			m = c
			calls++
		}
		m.Release()
		calls = max(calls, 1)
		out[j.key] = verifCost{
			build: sum.build / time.Duration(builds),
			clone: sum.clone / time.Duration(calls), step: sum.step / time.Duration(calls),
			hash: sum.hash / time.Duration(calls), release: sum.release / time.Duration(calls),
		}
	}
	return out, nil
}
