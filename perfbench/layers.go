package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"c3/internal/stats"
)

// counterNames are the simulated per-layer counters, folded from
// system.Metrics() by layerCounters.
var counterNames = []string{
	"c3.local_reqs", "c3.delegations", "c3.snoops_served", "c3.stalled", "c3.conflicts", "c3.evictions",
	"dcoh.reads", "dcoh.snoops", "dcoh.stalls",
	"hdir.fwds", "hdir.invs", "hdir.stalls",
}

// perLayer derives the per-layer metrics from a traced run: its traced
// and untraced rounds, the spans, and the probes. A metric of a layer the
// workload does not run reads 0.
func perLayer(p *plan, rounds []round, spans []span, pc probeCosts, workers int) ([]metric, map[string]time.Duration) {
	var traced, plain []round
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	nT := float64(len(traced))

	// Spans of the traced rounds, by name, and self time by layer.
	byName := map[string][]time.Duration{}
	self := map[string]time.Duration{}
	var tracedWall, rootTime time.Duration
	for _, r := range traced {
		tracedWall += r.wall
		for l, d := range selfTimes(spans, r.from, r.from+r.wall) {
			self[l] += d
		}
	}
	inTraced := func(t time.Duration) bool {
		for _, r := range traced {
			if t >= r.from && t < r.from+r.wall {
				return true
			}
		}
		return false
	}
	for _, s := range spans {
		if s.job < 0 || !inTraced(s.start) {
			continue
		}
		byName[s.name] = append(byName[s.name], s.end-s.start)
		if s.parent == 0 {
			rootTime += s.end - s.start
		}
	}
	sum := func(name string) time.Duration {
		var t time.Duration
		for _, d := range byName[name] {
			t += d
		}
		return t
	}
	mean := func(name string) time.Duration {
		if len(byName[name]) == 0 {
			return 0
		}
		return sum(name) / time.Duration(len(byName[name]))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	// Counts over one round: the job list and its outputs are the same in
	// every round.
	one := traced[0].results
	var events, ops, simCycles, misses, missOps, highCycles, missCycles uint64
	var states, clones, porSkips, symMerges uint64
	var iters, hangs, poisoned, forbidden int
	ctr := map[string]uint64{}
	for _, r := range one {
		events += r.events
		ops += r.counters["cpu.retired"]
		simCycles += uint64(r.run.Time)
		misses += r.run.Miss.TotalMisses()
		missOps += r.run.Miss.Ops
		highCycles += r.run.Miss.BandCycles(stats.BandHigh)
		missCycles += r.run.Miss.TotalMissCycles()
		for k, v := range r.counters {
			ctr[k] += v
		}
		states, clones, porSkips, symMerges = states+r.states, clones+r.clones, porSkips+r.porSkips, symMerges+r.symMerges
		iters, hangs, poisoned, forbidden = iters+r.iters, hangs+r.hangs, poisoned+r.poisoned, forbidden+r.forbidden
	}
	var rt rtSample
	for _, r := range traced {
		rt = rt.add(r.rt)
	}
	tracedEvents := events * uint64(len(traced))

	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name: name, value: v, unit: unit}) }

	// Machine build.
	buildMS, buildShare := ms(mean("system.New")), ratio(float64(sum("system.New")), float64(rootTime))
	usPerIter := ratio(us(sum("litmus.RunSoak")), float64(iters)*nT)
	if p.workload == "soak" {
		buildMS = pc.soakBuildMS
		buildShare = ratio(pc.soakBuildMS*1e3, usPerIter)
	}
	add("system.build_ms", buildMS, "ms")
	add("system.build_share", buildShare, "ratio")
	add("cache.llc_new_us", pc.llcNewUS, "us")
	add("gen.generate_us", pc.genUS, "us")

	// Event kernel and the Go runtime.
	add("sim.events", float64(events), "count")
	add("sim.run_ms", ms(mean("System.Run")), "ms")
	add("sim.ns_per_event", ratio(float64(sum("System.Run").Nanoseconds()), float64(tracedEvents)), "ns")
	add("go.allocs_per_event", ratio(float64(rt.allocObjs), float64(tracedEvents)), "count")
	add("go.alloc_mb", float64(rt.allocBytes)/1e6/nT, "MB")
	add("go.gc_cycles", float64(rt.gcCycles)/nT, "count")
	add("go.gc_cpu_s", rt.gcCPU/nT, "s")

	// Simulated counters (one round).
	add("cpu.retired_ops", float64(ops), "count")
	add("cpu.ops_per_kcycle", 1000*ratio(float64(ops), float64(simCycles)), "ops/kcycle")
	add("l1.accesses", float64(ctr["l1.accesses"]), "count")
	add("l1.miss_ratio", ratio(float64(ctr["l1.misses"]), float64(ctr["l1.accesses"])), "ratio")
	for _, n := range counterNames {
		add(n, float64(ctr[n]), "count")
	}
	add("net.msgs_total", float64(ctr["net.msgs.total"]), "count")
	add("net.bytes_total", float64(ctr["net.bytes.total"]), "count")
	add("net.msgs_per_op", ratio(float64(ctr["net.msgs.total"]), float64(ops)), "msgs/op")
	add("miss.mpki", 1000*ratio(float64(misses), float64(missOps)), "miss/kop")
	add("miss.high_band_share", ratio(float64(highCycles), float64(missCycles)), "ratio")

	// Checker.
	checkTime := sum("verif.Check")
	add("verif.states", float64(states), "count")
	add("verif.clones", float64(clones), "count")
	add("verif.por_skips", float64(porSkips), "count")
	add("verif.symmetry_merges", float64(symMerges), "count")
	add("verif.us_per_state", ratio(us(checkTime), float64(states)*nT), "us")
	var vc verifCost
	var explained time.Duration
	for _, r := range one {
		c, ok := pc.verif[r.key]
		if !ok {
			continue
		}
		vc.build += c.build
		vc.clone += c.clone
		vc.step += c.step
		vc.hash += c.hash
		vc.release += c.release
		explained += time.Duration(r.builds)*c.build + time.Duration(r.clones)*(c.clone+c.step+c.release)
	}
	shapes := time.Duration(max(len(pc.verif), 1))
	add("verif.build_us", us(vc.build/shapes), "us")
	add("verif.clone_us", us(vc.clone/shapes), "us")
	add("verif.step_us", us(vc.step/shapes), "us")
	add("verif.hash_us", us(vc.hash/shapes), "us")
	add("verif.release_us", us(vc.release/shapes), "us")
	residual := 0.0
	if checkTime > 0 {
		residual = 1 - ratio(float64(explained)*nT, float64(checkTime))
	}
	add("verif.residual_frac", residual, "ratio")

	// Litmus soak.
	add("litmus.us_per_iter", usPerIter, "us")
	add("soak.hangs", float64(hangs), "count")
	add("soak.poisoned", float64(poisoned), "count")
	add("soak.forbidden", float64(forbidden), "count")

	// Worker pool, and the trace itself, from the rounds.
	var busy, plainWall time.Duration
	var plainWalls, tracedWalls []float64
	for _, r := range plain {
		plainWall += r.wall
		plainWalls = append(plainWalls, r.wall.Seconds())
		for _, res := range r.results {
			busy += res.latency
		}
	}
	for _, r := range traced {
		tracedWalls = append(tracedWalls, r.wall.Seconds())
	}
	add("parallel.busy_frac", ratio(float64(busy), float64(plainWall)*float64(workers)), "ratio")
	add("trace.overhead_frac", median(tracedWalls)/median(plainWalls)-1, "ratio")
	var layered time.Duration
	for l, d := range self {
		if l != "bench" {
			layered += d
		}
	}
	add("layer_gap_frac", 1-ratio(float64(layered), float64(tracedWall)*float64(workers)), "ratio")
	return out, self
}

// printDecomposition writes each layer's self time against the traced
// rounds' worker time (wall x workers), and the findings the probes
// support.
func printDecomposition(w io.Writer, p *plan, rounds []round, self map[string]time.Duration, layer []metric, workers int) {
	var tracedWall time.Duration
	for _, r := range rounds {
		if r.traced {
			tracedWall += r.wall
		}
	}
	capacity := tracedWall * time.Duration(workers)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "layers: self time over traced rounds, %.3f s wall x %d workers = %.3f s\n",
		tracedWall.Seconds(), workers, capacity.Seconds())
	var sum time.Duration
	for _, l := range layers {
		sum += self[l]
		fmt.Fprintf(w, "  %-10s %9.3f s  %5.1f%%\n", l, self[l].Seconds(), 100*self[l].Seconds()/capacity.Seconds())
	}
	fmt.Fprintf(w, "  %-10s %9.3f s  %5.1f%%  (idle and unspanned)\n", "gap",
		(capacity - sum).Seconds(), 100*(capacity-sum).Seconds()/capacity.Seconds())
	get := func(name string) float64 {
		for _, m := range layer {
			if m.name == name {
				return m.value
			}
		}
		return 0
	}
	switch p.workload {
	case "soak":
		fmt.Fprintf(w, "finding: machine build (system.New+Release) is %.0f%% of each %.0f us litmus iteration;"+
			" cache.New of one 4 MiB LLC alone is %.0f us, x2 clusters = %.0f%% of the build\n",
			100*get("system.build_share"), get("litmus.us_per_iter"), get("cache.llc_new_us"),
			100*2*get("cache.llc_new_us")/(1e3*get("system.build_ms")))
	case "check":
		fmt.Fprintf(w, "finding: build+clone+step+release explain %.0f%% of verif.Check time;"+
			" the residual %.0f%% (canonical hashing, visited set, POR) is the largest share;"+
			" raw Model.Hash alone costs %.1f us/state against %.1f us clone + %.1f us step\n",
			100*(1-get("verif.residual_frac")), 100*get("verif.residual_frac"),
			get("verif.hash_us"), get("verif.clone_us"), get("verif.step_us"))
	default:
		fmt.Fprintf(w, "finding: system.New is %.0f%% of job time (%.2f ms/build); the event loop runs %.0f ns/event, %.2f allocs/event\n",
			100*get("system.build_share"), get("system.build_ms"), get("sim.ns_per_event"), get("go.allocs_per_event"))
	}
}
