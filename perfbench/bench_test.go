package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

const testExpected = "expected"

// smallPlan is a quick slice of a workload with its recorded outputs.
func smallPlan(t *testing.T, workload string, seed int64, n int) *plan {
	t.Helper()
	p, err := setup(workload, testExpected, seed)
	if err != nil {
		t.Fatal(err)
	}
	p.jobs = p.jobs[:n]
	return p
}

func digests(r round) map[string]string {
	out := map[string]string{}
	for _, res := range r.results {
		out[res.key] = res.digest
	}
	return out
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !valid.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	var wls []string
	for _, w := range bj.Workloads {
		check("workload", w.Name)
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wls, workloadNames)
	}

	units := func(ms []metric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			check("metric", m.name)
			out[m.name] = m.unit
		}
		return out
	}
	listed := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e := endToEnd([]time.Duration{time.Second}, []round{{results: []result{{}}}}, 1)
	if got, want := units(e2e), listed(bj.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics emitted %v, BENCHMARK.json lists %v", got, want)
	}
	layer, _ := perLayer(&plan{workload: "sim-long", jobs: []job{{}}},
		[]round{{traced: true, results: []result{{}}}, {results: []result{{}}}}, nil, probeCosts{}, 1)
	if got, want := units(layer), listed(bj.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics emitted %v, BENCHMARK.json lists %v", got, want)
	}
}

func TestInputSeedWrapsOntoPool(t *testing.T) {
	for seed, want := range map[int64]int64{1: 1, 16: 16, 17: 1, 0: 16, -1: 15, 33: 1} {
		if got := inputSeed(seed); got != want {
			t.Errorf("inputSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

// The same seed gives the same outputs run after run, traced or not, and
// they are the recorded ones.
func TestSameSeedSameDigests(t *testing.T) {
	p := smallPlan(t, "sweep-short", 3, 6)
	a := runRound(p, 2, nil, 0)
	b := runRound(p, 2, newTracer(), 1)
	if !reflect.DeepEqual(digests(a), digests(b)) {
		t.Fatalf("digests differ between runs:\n%v\n%v", digests(a), digests(b))
	}
	for _, r := range []round{a, b} {
		for i, f := range r.failures {
			if f != nil {
				t.Errorf("job %s: %v", r.results[i].key, f)
			}
		}
	}
}

// One worker and several give identical simulated statistics.
func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	p := smallPlan(t, "sweep-short", 5, 6)
	one := runRound(p, 1, nil, 0)
	two := runRound(p, 2, nil, 0)
	if !reflect.DeepEqual(digests(one), digests(two)) {
		t.Fatalf("digests differ across worker counts:\n%v\n%v", digests(one), digests(two))
	}
	for i := range one.results {
		if !reflect.DeepEqual(one.results[i].counters, two.results[i].counters) ||
			one.results[i].run != two.results[i].run {
			t.Errorf("job %s: statistics differ across worker counts", one.results[i].key)
		}
	}
}

// A corrupted expected entry makes exactly that job fail: the oracle can
// fail.
func TestCorruptedExpectedIsAFailedJob(t *testing.T) {
	p := smallPlan(t, "check", 1, len(checkJobs()))
	var quick []job // the MP shapes explore in milliseconds
	for _, j := range p.jobs {
		if j.test == "MP" {
			quick = append(quick, j)
		}
	}
	p.jobs = quick
	p.expected[quick[0].key] = checkDigest("pass", []string{"x=0"})
	attempted, failed, first := tally([]round{runRound(p, 2, nil, 0)})
	if attempted != len(quick) || failed != 1 {
		t.Fatalf("attempted %d failed %d (first: %v), want %d attempted, 1 failed",
			attempted, failed, first, len(quick))
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, layer: "bench", start: 0, end: 10 * ms},
		{id: 2, parent: 1, layer: "system", start: 1 * ms, end: 4 * ms},
		{id: 3, parent: 1, layer: "sim", start: 4 * ms, end: 9 * ms},
		{id: 4, layer: "bench", start: 20 * ms, end: 30 * ms}, // outside the window
	}
	got := selfTimes(spans, 0, 15*ms)
	want := map[string]time.Duration{"bench": 2 * ms, "system": 3 * ms, "sim": 5 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}
