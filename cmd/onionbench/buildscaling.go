package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// onionbench -build-scaling: the build-side performance trajectory.
//
// Index construction is the dominant cost the paper itself flags
// (Section 3.4; Table 3 reports multi-hour builds at 1M points), and it
// is the one hot path a serving deployment cannot amortize — every
// snapshot rebuild pays it. This mode sweeps the Parallelism knob over
// one fixed corpus (Gaussian 4D, 100k points unless -n overrides),
// measures the wall-clock build at each worker count, and verifies the
// determinism guarantee the parallel design promises: every build must
// produce the identical layer partition (checked by core.Fingerprint,
// the same oracle the WAL crash-recovery tests use; any mismatch
// exits non-zero, which is what lets scripts/ci.sh use a small sweep as
// a regression gate). The summary lands in -build-out (BENCH_build.json).

// buildScalingRun is one measured build of the sweep.
type buildScalingRun struct {
	Workers     int     `json:"workers"`
	Seconds     float64 `json:"seconds"`
	Layers      int     `json:"layers"`
	Fingerprint string  `json:"fingerprint"`
	SpeedupVs1  float64 `json:"speedup_vs_1"`
}

// buildScalingSummary is the BENCH_build.json schema.
type buildScalingSummary struct {
	Kind            string            `json:"kind"`
	Generated       string            `json:"generated"`
	N               int               `json:"n"`
	Dim             int               `json:"dim"`
	Dist            string            `json:"dist"`
	Seed            int64             `json:"seed"`
	NumCPU          int               `json:"num_cpu"`
	GOMAXPROCS      int               `json:"gomaxprocs"`
	Runs            []buildScalingRun `json:"runs"`
	IdenticalOutput bool              `json:"identical_output"`
}

// parseIntList parses a comma-separated list of positive integers,
// dropping duplicates while preserving order.
func parseIntList(s string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad count %q (want positive integers)", part)
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseWorkerList(s string) ([]int, error) {
	out, err := parseIntList(s)
	if err != nil {
		return nil, err
	}
	// The sweep's speedups are reported relative to 1 worker; make sure
	// the baseline is part of the sweep (first, so it anchors the table).
	if out[0] != 1 {
		for _, w := range out[1:] {
			if w == 1 {
				return out, nil
			}
		}
		out = append([]int{1}, out...)
	}
	return out, nil
}

func buildScaling(n int, workerList, outPath string) {
	const dim = 4
	workers, err := parseWorkerList(workerList)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("=== build scaling: Gaussian %dD, n=%d, seed=%d, workers %v ===\n", dim, n, *seedFlag, workers)
	fmt.Printf("host: %d CPU(s), GOMAXPROCS=%d\n\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))

	pts := workload.Points(workload.Gaussian, n, dim, *seedFlag)
	recs := make([]core.Record, n)
	for i, p := range pts {
		recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
	}

	summary := buildScalingSummary{
		Kind:            "onion-build-scaling",
		Generated:       time.Now().UTC().Format(time.RFC3339),
		N:               n,
		Dim:             dim,
		Dist:            "gaussian",
		Seed:            *seedFlag,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		IdenticalOutput: true,
	}

	fmt.Printf("%8s | %10s | %8s | %8s | %s\n", "workers", "seconds", "speedup", "layers", "fingerprint")
	var baseSeconds float64
	var baseFingerprint string
	for _, w := range workers {
		start := time.Now()
		ix, err := core.Build(recs, core.Options{Seed: *seedFlag, Parallelism: w})
		if err != nil {
			fatal(fmt.Errorf("build with %d workers: %w", w, err))
		}
		secs := time.Since(start).Seconds()
		fp := ix.Fingerprint()
		run := buildScalingRun{Workers: w, Seconds: secs, Layers: ix.NumLayers(), Fingerprint: fp}
		if w == 1 {
			baseSeconds, baseFingerprint = secs, fp
		}
		if baseSeconds > 0 {
			run.SpeedupVs1 = baseSeconds / secs
		}
		if baseFingerprint != "" && fp != baseFingerprint {
			summary.IdenticalOutput = false
		}
		summary.Runs = append(summary.Runs, run)
		fmt.Printf("%8d | %10.3f | %7.2fx | %8d | %s\n", w, secs, run.SpeedupVs1, run.Layers, fp)
	}
	fmt.Println()

	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("summary written to %s\n", outPath)

	if !summary.IdenticalOutput {
		// Determinism is a hard guarantee, not a statistic: a parallel
		// build that differs from the sequential one breaks seeded
		// replay everywhere (serving-layer rebuilds included).
		fatal(fmt.Errorf("parallel build output differs from sequential build — determinism violated"))
	}
	fmt.Println("determinism check: all builds produced the identical layer partition")
}
