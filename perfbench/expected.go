package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"c3/internal/parallel"
)

// expectedFile is a workload's recorded correct outputs.
type expectedFile struct {
	Workload string `json:"workload"`
	// Digests[input seed][job key] holds the digest of a sim job (stats.Run
	// and every system.Metrics counter) or a soak row (its rendered report
	// line and verdict), for workloads whose output depends on the input.
	Digests map[string]map[string]string `json:"digests,omitempty"`
	// Checks[job key] holds each check job's verdict and sorted outcome
	// list; the checker takes no seed, so one entry serves every input.
	Checks map[string]checkExpect `json:"checks,omitempty"`
}

type checkExpect struct {
	Verdict  string   `json:"verdict"`
	Outcomes []string `json:"outcomes"`
}

func expectedPath(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

// loadExpected returns the expected digest of every job for input in.
func loadExpected(dir, workload string, in int64) (map[string]string, error) {
	raw, err := os.ReadFile(expectedPath(dir, workload))
	if err != nil {
		return nil, fmt.Errorf("expected outputs: %w", err)
	}
	var ef expectedFile
	if err := json.Unmarshal(raw, &ef); err != nil {
		return nil, fmt.Errorf("expected outputs %s: %w", workload, err)
	}
	if ef.Workload != workload {
		return nil, fmt.Errorf("expected outputs: file holds %q, want %q", ef.Workload, workload)
	}
	if ef.Checks != nil {
		out := make(map[string]string, len(ef.Checks))
		for k, c := range ef.Checks {
			out[k] = checkDigest(c.Verdict, c.Outcomes)
		}
		return out, nil
	}
	out, ok := ef.Digests[strconv.FormatInt(in, 10)]
	if !ok {
		return nil, fmt.Errorf("expected outputs %s: no entry for input seed %d", workload, in)
	}
	return out, nil
}

// recordExpected runs every job of every input once and writes the
// outputs as the workload's expected file. It refuses to record a job
// that errs.
func recordExpected(dir, workload string, workers int) error {
	ef := expectedFile{Workload: workload}
	inputs := []int64{}
	for in := int64(1); in <= inputPool; in++ {
		inputs = append(inputs, in)
	}
	if workload == "check" {
		inputs = inputs[:1]
		ef.Checks = map[string]checkExpect{}
	} else {
		ef.Digests = map[string]map[string]string{}
	}
	for _, in := range inputs {
		jobs, err := buildJobs(workload, in)
		if err != nil {
			return err
		}
		res, errs := parallel.MapAll(context.Background(), workers, len(jobs), func(i int) (result, error) {
			return runJob(&jobs[i], nil, i), nil
		})
		digests := map[string]string{}
		for i, r := range res {
			if err := firstErr(errs[i], r.err); err != nil {
				return fmt.Errorf("record %s input %d job %s: %w", workload, in, jobs[i].key, err)
			}
			if ef.Checks != nil {
				ef.Checks[r.key] = checkExpect{Verdict: r.verdict, Outcomes: r.outcomes}
			}
			digests[r.key] = r.digest
		}
		if ef.Digests != nil {
			ef.Digests[strconv.FormatInt(in, 10)] = digests
		}
		fmt.Fprintf(os.Stderr, "recorded %s input %d: %d jobs\n", workload, in, len(jobs))
	}
	raw, err := json.MarshalIndent(ef, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(expectedPath(dir, workload), append(raw, '\n'), 0o644)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
