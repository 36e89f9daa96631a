// Command perfbench is the repository's end-to-end benchmark. It
// generates seeded inputs, launches the program under test as a server
// process of its own (the "serve" role of this same binary, which calls
// core.Build, server.New(...).Handler() and the wal functions exactly
// as onionserve's main does), drives it over loopback HTTP from a
// closed-loop client, checks the answers against a brute-force oracle,
// and prints one JSON result line.
//
//	bash perfbench/run.sh --workload topn-hot --seed 1 --seconds 10 --trace 0
//
// Workloads: topn-hot, topn-deep, durable-rw (see BENCHMARK.json for
// why each exists). --seconds sets the measured operation count of the
// read workloads at a nominal rate per second; phases end after a count
// of operations, never after a time window. --trace 1 runs the workload
// with span tracing and reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runDeadline stops a run that hangs, well inside the 180 s a run may
// take.
const runDeadline = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServer(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	if err := runClient(os.Args[1:]); err != nil {
		stopAll()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// header identifies the run, as every committed benchmark result must.
type header struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Host       string `json:"host"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_revision"`
	SourceHash string `json:"source_sha256"`
	// StealPct is the share of CPU time the hypervisor gave to other
	// guests during the run. Tails grow with it; figures from runs with
	// a high share are slow-machine figures.
	StealPct float64 `json:"host_steal_pct"`
}

func runClient(args []string) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fl.String("workload", "", "topn-hot, topn-deep or durable-rw")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 10, "measured operations of the read workloads, in seconds at the nominal rate")
	trace := fl.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if _, ok := readSpecs[*wl]; !ok && *wl != "durable-rw" {
		return fmt.Errorf("unknown workload %q", *wl)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d", *wl, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// A hung run, or a signal from whoever runs the benchmark, stops
	// every server and removes the run's files before exiting.
	abort := func(msg string) {
		stopAll()
		os.RemoveAll(dir)
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
		os.Exit(3)
	}
	timer := time.AfterFunc(runDeadline, func() { abort(fmt.Sprintf("run exceeded %v", runDeadline)) })
	defer timer.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() { abort(fmt.Sprintf("stopped by %v", <-sigs)) }()

	steal0, total0 := cpuTicks()
	r := &runner{durable: *wl == "durable-rw", shape: refShapes[*wl],
		seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir,
		e2e: map[string]float64{}, layer: map[string]float64{}, rtt: map[uint64]int64{}, details: map[string]any{},
		measureLoops: map[uint64]bool{},
	}
	if spec, ok := readSpecs[*wl]; ok {
		err = r.readWorkload(spec)
	} else {
		err = r.durableWorkload()
	}
	stopAll()
	if err != nil {
		return err
	}
	r.scaleToReference(refTypical[*wl])
	if r.trace {
		r.spanMetrics()
	}
	metrics, err := r.output()
	if err != nil {
		return err
	}
	h := header{
		Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: r.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRev: gitRevision(root), SourceHash: os.Getenv("PERFBENCH_SOURCE_SHA256"),
	}
	h.Host, _ = os.Hostname()
	if steal1, total1 := cpuTicks(); total1 > total0 {
		h.StealPct = 100 * (steal1 - steal0) / (total1 - total0)
	}
	attempted, failed := 0, 0
	for _, p := range r.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	detail, err := json.Marshal(map[string]any{"header": h, "phases": r.phases, "errors": r.errs, "details": r.details})
	if err != nil {
		return err
	}
	fmt.Println(string(detail))
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", e)
	}
	final, err := json.Marshal(map[string]any{
		"correct":   len(r.errs) == 0 && failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}

// gitRevision returns HEAD's commit, or "unknown" outside a git
// checkout.
func gitRevision(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
