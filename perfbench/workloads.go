package main

import (
	"fmt"
	"math/rand/v2"

	"c3/internal/cpu"
	"c3/internal/gen"
	"c3/internal/litmus"
	"c3/internal/ssp"
	"c3/internal/workload"
)

// The four workloads stress different layers (see README.md for the
// sizing measurements behind each choice):
//
//   - sim-long: few long simulations, so per-event work in the event
//     loop dominates host time and machine build barely shows.
//   - sweep-short: the Fig. 10 sweep at small scale, so system.New
//     (LLC slab zeroing) and the GC show and per-event work shows little.
//   - check: exhaustive model checking, the only place the checker's
//     clone/step/hash work runs.
//   - soak: litmus campaigns on faulty fabrics, the only place the fault
//     injector, reliable shim, watchdog and per-iteration build+Release
//     run.
var workloadNames = []string{"sim-long", "sweep-short", "check", "soak"}

// inputPool is the number of distinct input sets. A --seed selects one
// of them (seed 1..inputPool map to themselves), so the oracle can hold
// the expected output of every input the benchmark can generate.
const inputPool = 16

// inputSeed maps a --seed onto the input pool: 1..inputPool.
func inputSeed(seed int64) int64 {
	m := (seed - 1) % inputPool
	if m < 0 {
		m += inputPool
	}
	return m + 1
}

type jobKind uint8

const (
	simKind jobKind = iota
	checkKind
	soakKind
)

// job is one unit of closed-loop work: a single call into a public entry
// point (workload.RunOn, verif.Check or litmus.RunSoak).
type job struct {
	key  string // stable identity; the oracle's lookup key
	kind jobKind

	// simKind: one workload run.
	kernel string
	global string
	locals [2]string
	mcms   [2]cpu.MCM
	cores  int
	scale  float64
	seed   int64

	// checkKind: one exhaustive exploration (global is always cxl).
	test string
	tiny bool

	// soakKind: one RunSoak campaign row.
	plan  litmus.NamedPlan
	iters int
}

// protoCombo is one machine configuration of Figs. 9/10.
type protoCombo struct {
	name   string
	global string
	locals [2]string
	mcms   [2]cpu.MCM
}

// fig10Combos are Fig. 10's four protocol combinations (ARM cores).
func fig10Combos() []protoCombo {
	arm := [2]cpu.MCM{cpu.WMO, cpu.WMO}
	return []protoCombo{
		{"MESI-MESI-MESI", "hmesi", [2]string{"mesi", "mesi"}, arm},
		{"MESI-CXL-MESI", "cxl", [2]string{"mesi", "mesi"}, arm},
		{"MESI-CXL-MOESI", "cxl", [2]string{"mesi", "moesi"}, arm},
		{"MESI-CXL-MESIF", "cxl", [2]string{"mesi", "mesif"}, arm},
	}
}

// Simulation sizes. sim-long runs each job long enough that machine build
// is a small share of it; sweep-short is the bench_test.go Fig. 10 shape.
const (
	simLongScale    = 0.5
	simLongCores    = 4
	sweepScale      = 0.1
	sweepCores      = 2
	soakItersPerJob = 30
)

// simLongKernels are Fig. 11's CXL-sensitive kernels plus canneal, and
// the insensitive vips.
var simLongKernels = []string{"histogram", "barnes", "lu-ncont", "canneal", "vips"}

func simJobs(kernels []string, combos []protoCombo, cores int, scale float64, seed int64) []job {
	var jobs []job
	for _, k := range kernels {
		for _, c := range combos {
			jobs = append(jobs, job{
				key:  fmt.Sprintf("%s/%s/%v-%v", k, c.name, c.mcms[0], c.mcms[1]),
				kind: simKind, kernel: k, global: c.global,
				locals: c.locals, mcms: c.mcms, cores: cores, scale: scale, seed: seed,
			})
		}
	}
	return jobs
}

// buildJobs generates a workload's job list from its input seed. The job
// order is shuffled by the seed; it is identical in every round.
func buildJobs(name string, in int64) ([]job, error) {
	var jobs []job
	switch name {
	case "sim-long":
		combos := fig10Combos()
		// Fig. 9's MCM mixes on the heterogeneous protocol setup.
		combos = append(combos,
			protoCombo{"MESI-CXL-MOESI", "cxl", [2]string{"mesi", "moesi"}, [2]cpu.MCM{cpu.TSO, cpu.TSO}},
			protoCombo{"MESI-CXL-MOESI", "cxl", [2]string{"mesi", "moesi"}, [2]cpu.MCM{cpu.WMO, cpu.TSO}})
		jobs = simJobs(simLongKernels, combos, simLongCores, simLongScale, in)
	case "sweep-short":
		jobs = simJobs(workload.Names(), fig10Combos(), sweepCores, sweepScale, in)
	case "check":
		jobs = checkJobs()
	case "soak":
		var err error
		if jobs, err = soakJobs(in); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	rng := rand.New(rand.NewPCG(uint64(in), 0x5eed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// checkJobs are the C³ (cxl) shapes. The hmesi baseline is left out: it
// fails SWMR on RWC, WWC, WRW+2W and IRIW (see README.md, known defects).
func checkJobs() []job {
	arm := [2]cpu.MCM{cpu.WMO, cpu.WMO}
	mix := [2]cpu.MCM{cpu.TSO, cpu.WMO}
	mm := [2]string{"mesi", "mesi"}
	het := [2]string{"moesi", "mesif"}
	shapes := []struct {
		test   string
		locals [2]string
		mcms   [2]cpu.MCM
		tiny   bool
	}{
		{"MP+3W", mm, arm, false},
		{"IRIW", mm, arm, false},
		{"WRC", mm, arm, false},
		{"RWC", mm, arm, false},
		{"CoRR2", mm, arm, false},
		{"MP", het, mix, false},
		{"SB", het, mix, false},
		{"MP", mm, arm, true},
	}
	jobs := make([]job, 0, len(shapes))
	for _, s := range shapes {
		key := fmt.Sprintf("%s/%s-%s/%v-%v", s.test, s.locals[0], s.locals[1], s.mcms[0], s.mcms[1])
		if s.tiny {
			key += "/tiny"
		}
		jobs = append(jobs, job{key: key, kind: checkKind, test: s.test,
			global: "cxl", locals: s.locals, mcms: s.mcms, tiny: s.tiny})
	}
	return jobs
}

// soakSeedsPerRow is how many campaign seeds each (test, plan) cell gets.
const soakSeedsPerRow = 3

// soakJobs are the Table IV tests x {light, noisy} x a few campaign seeds
// derived from the input seed.
func soakJobs(in int64) ([]job, error) {
	var jobs []job
	for _, test := range litmus.TableIVNames() {
		for _, pname := range []string{"light", "noisy"} {
			p, ok := litmus.PlanByName(pname)
			if !ok {
				return nil, fmt.Errorf("soak: no fault plan %q", pname)
			}
			for k := int64(0); k < soakSeedsPerRow; k++ {
				seed := in + 1000*k
				jobs = append(jobs, job{
					key:  litmus.RowLabel(test, pname, seed),
					kind: soakKind, test: test, plan: p, seed: seed, iters: soakItersPerJob,
					global: "cxl", locals: [2]string{"mesi", "mesi"},
				})
			}
		}
	}
	return jobs, nil
}

// tableConfigs lists the distinct (local, global) protocol pairs the jobs
// build machines from.
func tableConfigs(jobs []job) [][2]string {
	seen := map[[2]string]bool{}
	var out [][2]string
	for _, j := range jobs {
		for _, l := range j.locals {
			k := [2]string{l, j.global}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// synthesize generates the compound table of every configuration, so a
// misconfigured job fails in set-up rather than mid-run.
func synthesize(cfgs [][2]string) error {
	for _, c := range cfgs {
		ls, ok := ssp.Local(c[0])
		if !ok {
			return fmt.Errorf("unknown local protocol %q", c[0])
		}
		gs, ok := ssp.Global(c[1])
		if !ok {
			return fmt.Errorf("unknown global protocol %q", c[1])
		}
		if _, err := gen.Generate(ls, gs); err != nil {
			return fmt.Errorf("table %s/%s: %w", c[0], c[1], err)
		}
	}
	return nil
}
