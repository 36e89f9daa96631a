package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// The benchmark runs on shared virtual machines whose speed changes
// under it for minutes at a time, as other guests load the host. On
// the 2-vCPU reference machine, runs of identical code spread by 40 to
// 70% of their median in throughput, in latency and in server CPU time
// per query alike, and within one hour the same code ran 1.8 times as
// fast as in the hour before. Medians over the blocks of one run cannot
// remove that, so every timed end-to-end figure is scaled to a
// reference speed.
//
// The reference is a fixed HTTP server of the benchmark's own (the
// "reference" role of this binary). It answers a top-n request by
// scanning a given number of records, and a write by scanning records
// too, then appending the write to a log file and fsyncing it, with
// net/http and encoding/json like the program under test. Throughout a
// run, at points where the server under test is idle, the load process
// drives the reference with the same closed-loop client (a
// calibration): oneOps cheap reads on one connection, then the loop
// shaped like the workload's measured phase (refShapes). For the read
// workloads that is reads over conns connections; for durable-rw, a
// writer and a reader on one connection each, at once. A shape's
// requests cost about what the workload's own do, because a busy host
// stretches a cheap request relatively more than a costly one.
//
// Each timed figure is scaled by the same kind of figure of the loop
// shaped like the phase that measured it, against its typical value on
// the reference machine (refTypical): throughput as a median over the
// calibrations, latency quantiles over their requests pooled. The read
// workloads take the calibrations around the phase itself (set-up,
// reads, restarts, write tail), because a slow spell of the host can
// cover one phase and spare the next; durable-rw, whose phases
// interleave in every cycle, takes all of its own. Rates and set-up or
// recovery times go by the throughput, p50 and p99 latencies by the p50
// and p99 (most p99s by the throughput, see scaleToReference),
// server CPU time, and durable-rw's ingest rate, which is mostly the
// fold's computation, by the reference's CPU time per request. Memory
// and space figures are not scaled. The unscaled figures, every
// calibration and the slowdowns are printed with the run header. The
// reference never changes with the program, so a program change moves
// the scaled figures exactly as it moves the unscaled ones.
const (
	refRecs = 64 << 10
	refTopN = 10
	// The one-connection loop scales set-up, recovery and the read
	// workloads' write tail.
	oneScan = 4096
	oneOps  = 3000
)

// refShape sizes a workload's calibration loop: the records a reference
// read and write scan, and how many reads (on conns connections) or
// writes (beside one reader) the loop runs.
type refShape struct {
	readScan, readOps   int
	writeScan, writeOps int
}

var refShapes = map[string]refShape{
	"topn-hot":   {readScan: 1024, readOps: 3000},
	"topn-deep":  {readScan: 65536, readOps: 800},
	"durable-rw": {readScan: 65536, writeScan: 24576, writeOps: 800},
}

// loopFigures are one calibration loop's figures, and its latencies.
type loopFigures struct {
	QPS   float64 `json:"qps"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
	lat   []float64
}

// calibration is what one calibration measured, or for refTypical what
// it typically measures on the reference machine. Two is measured in
// the read workloads, Writer and Reader in durable-rw.
type calibration struct {
	Phase  string      `json:"phase,omitempty"`
	One    loopFigures `json:"conns1"`
	Two    loopFigures `json:"conns2"`
	Writer loopFigures `json:"writer"`
	Reader loopFigures `json:"reader"`
	CPUus  float64     `json:"cpu_us_per_op"`
	// The reference server's CPU seconds and answered requests.
	cpuS float64
	done int
}

// refTypical holds calibration figures of the reference machine in its
// slower hours: scaled figures read as if measured then. The shaped
// loop's depend on the workload.
var refTypical = map[string]calibration{
	"topn-hot": {
		One:   loopFigures{QPS: 10000, P50ms: 0.09, P99ms: 0.21},
		Two:   loopFigures{QPS: 21000, P50ms: 0.078, P99ms: 0.386},
		CPUus: 48,
	},
	"topn-deep": {
		One:   loopFigures{QPS: 10000, P50ms: 0.09, P99ms: 0.21},
		Two:   loopFigures{QPS: 3600, P50ms: 0.5, P99ms: 1.4},
		CPUus: 460,
	},
	"durable-rw": {
		One:    loopFigures{QPS: 10000, P50ms: 0.09, P99ms: 0.21},
		Writer: loopFigures{QPS: 3100, P50ms: 0.255, P99ms: 1.17},
		Reader: loopFigures{QPS: 2100, P50ms: 0.46, P99ms: 1.07},
		CPUus:  128,
	},
}

// refRequest, refWriteRequest and refResult are the reference server's
// wire format. Scan is how many records a request scans.
type refRequest struct {
	Weights []float64 `json:"weights"`
	N       int       `json:"n"`
	Scan    int       `json:"scan"`
}

type refWriteRequest struct {
	Records []refRecord `json:"records"`
	Scan    int         `json:"scan"`
}

type refRecord struct {
	ID     uint64    `json:"id"`
	Vector []float64 `json:"vector"`
}

type refResult struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// runReference serves the reference until stdin closes, appending
// writes to logPath. It speaks the launch protocol of the serve role:
// an addr line, a ready line (with no set-up stages) and
// /v1/healthz/ready.
func runReference(logPath string) error {
	recs := genCorpus(1, distUniform, refRecs, dim)
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer log.Close()
	var logMu sync.Mutex
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz/ready", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"ready":true}`)
	})
	mux.HandleFunc("/v1/topn", func(w http.ResponseWriter, r *http.Request) {
		var req refRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Weights) != dim || req.N < 1 {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		top := make([]refResult, 0, req.N+1)
		for i, rec := range recs[:min(max(req.Scan, 0), len(recs))] {
			s := score(req.Weights, rec.Vec)
			if len(top) == req.N && s <= top[len(top)-1].Score {
				continue
			}
			j := sort.Search(len(top), func(k int) bool { return top[k].Score < s })
			top = append(top, refResult{})
			copy(top[j+1:], top[j:])
			top[j] = refResult{ID: i, Score: s}
			if len(top) > req.N {
				top = top[:req.N]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"results": top})
	})
	mux.HandleFunc("/v1/insert", func(w http.ResponseWriter, r *http.Request) {
		var req refWriteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Records) != 1 || len(req.Records[0].Vector) != dim {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		var sum float64
		for _, rec := range recs[:min(max(req.Scan, 0), len(recs))] {
			sum += score(req.Records[0].Vector, rec.Vec)
		}
		line, _ := json.Marshal(map[string]any{"records": req.Records, "sum": sum})
		logMu.Lock()
		_, err := log.Write(append(line, '\n'))
		if err == nil {
			err = log.Sync()
		}
		logMu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		io.WriteString(w, `{"ok":true}`)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Printf("addr %s\nready []\n", ln.Addr())
	io.Copy(io.Discard, os.Stdin)
	return srv.Close()
}

// calibrate runs one calibration against the reference server, for
// the figures of the given phase.
func (r *runner) calibrate(phase string) error {
	if r.ref == nil {
		var err error
		if r.ref, err = launch(r.path("reference.log"), "-reference", r.path("reference-writes.log")); err != nil {
			return err
		}
		for _, w := range genWeights(1, streamReference, 256, dim) {
			one, _ := json.Marshal(refRequest{Weights: w, N: refTopN, Scan: oneScan})
			read, _ := json.Marshal(refRequest{Weights: w, N: refTopN, Scan: r.shape.readScan})
			r.refOne, r.refRead = append(r.refOne, one), append(r.refRead, read)
		}
		r.refWrite, _ = json.Marshal(refWriteRequest{Records: []refRecord{{ID: 1, Vector: []float64{0.25, 0.5, 0.75}}}, Scan: r.shape.writeScan})
	}
	bodies := func(path string, bs ...[]byte) func(int, []byte) []byte {
		return func(i int, dst []byte) []byte { return appendRequest(dst, "POST", path, bs[i%len(bs)], 0) }
	}
	done := 0
	loop := func(n, ops int, stop *atomic.Bool, build func(int, []byte) []byte) (loopFigures, error) {
		lr, err := runLoop(r.ref.addr, n, ops, stop, build, nil)
		if err != nil {
			return loopFigures{}, err
		}
		if lr.failed > 0 {
			return loopFigures{}, fmt.Errorf("reference server failed %d of %d requests", lr.failed, len(lr.ops))
		}
		done += lr.okCount()
		lat := lr.latMs()
		return loopFigures{QPS: float64(lr.okCount()) / lr.elapsed.Seconds(), P50ms: quantile(lat, 0.5), P99ms: quantile(lat, 0.99), lat: lat}, nil
	}
	c0, err := cpuSeconds(r.ref.pid())
	if err != nil {
		return err
	}
	// A read workload's calibration runs only the loop its phase's
	// figures go by: the shaped loop for the reads, the one-connection
	// loop for the rest.
	c := calibration{Phase: phase}
	if r.durable || phase != phaseRead {
		if c.One, err = loop(1, oneOps, nil, bodies("/v1/topn", r.refOne...)); err != nil {
			return err
		}
	}
	if phase == phaseRead {
		if c.Two, err = loop(conns, r.shape.readOps, nil, bodies("/v1/topn", r.refRead...)); err != nil {
			return err
		}
	} else if r.durable {
		var stop atomic.Bool
		var rerr error
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			c.Reader, rerr = loop(1, -1, &stop, bodies("/v1/topn", r.refRead...))
		}()
		c.Writer, err = loop(1, r.shape.writeOps, nil, bodies("/v1/insert", r.refWrite))
		stop.Store(true)
		<-readerDone
		if err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
	}
	c1, err := cpuSeconds(r.ref.pid())
	if err != nil {
		return err
	}
	c.cpuS, c.done = c1-c0, done
	c.CPUus = c.cpuS * 1e6 / float64(done)
	r.calibs = append(r.calibs, c)
	return nil
}

// scaleToReference scales the run's timed end-to-end figures to the
// reference machine, keeping the unscaled ones in the details. The read
// workloads scale each figure by the calibrations taken around the
// phase that measured it; durable-rw, whose phases interleave in every
// cycle, by all of its calibrations.
func (r *runner) scaleToReference(typical calibration) {
	// slowdown returns how much slower than typical the machine was
	// during the calibrations of phase ("" for all), per kind of figure.
	// CPU time per request is totalled, because /proc counts it in 10 ms
	// ticks.
	slowdown := func(phase string) calibration {
		var cs []calibration
		for _, c := range r.calibs {
			if phase == "" || c.Phase == phase {
				cs = append(cs, c)
			}
		}
		// Like the figures they scale, throughput is a median over
		// calibrations and latency quantiles pool every request of the
		// phase's calibrations. A loop that did not run scales nothing.
		loop := func(get func(calibration) loopFigures) loopFigures {
			typ := get(typical)
			var ran []calibration
			var lat []float64
			for _, c := range cs {
				if get(c).QPS > 0 {
					ran = append(ran, c)
					lat = append(lat, get(c).lat...)
				}
			}
			if typ.QPS == 0 || len(ran) == 0 {
				return loopFigures{}
			}
			qps := make([]float64, len(ran))
			for i, c := range ran {
				qps[i] = get(c).QPS
			}
			return loopFigures{
				QPS:   typ.QPS / median(qps),
				P50ms: quantile(lat, 0.5) / typ.P50ms,
				P99ms: quantile(lat, 0.99) / typ.P99ms,
			}
		}
		var cpuS float64
		var done int
		for _, c := range cs {
			cpuS, done = cpuS+c.cpuS, done+c.done
		}
		return calibration{
			Phase:  phase,
			One:    loop(func(c calibration) loopFigures { return c.One }),
			Two:    loop(func(c calibration) loopFigures { return c.Two }),
			Writer: loop(func(c calibration) loopFigures { return c.Writer }),
			Reader: loop(func(c calibration) loopFigures { return c.Reader }),
			CPUus:  cpuS * 1e6 / float64(max(done, 1)) / typical.CPUus,
		}
	}
	// Each metric's factor: the read workloads read on conns
	// connections and write on one; durable-rw reads and writes on one
	// connection each, at once, and its ingest time is mostly the fold's
	// computation, which goes by CPU speed. A p99 goes by the loop's p99
	// only where both tails have one cause: in the read workloads'
	// reads, two connections keep both vCPUs busy, so the host's stalls
	// set both. The other p99s come from the program's own causes (the
	// server's collections of its heap, fsync batches, the fold beside
	// the reader) and go by the loop's throughput, the steadier gauge of
	// the machine's speed.
	var by map[string]float64
	var slows []calibration
	if r.durable {
		s := slowdown("")
		slows = []calibration{s}
		by = map[string]float64{
			"setup_s": s.One.QPS, "recover_s": s.One.QPS,
			"topn_qps": 1 / s.Reader.QPS, "topn_p50_ms": s.Reader.P50ms, "topn_p99_ms": s.Reader.QPS,
			"cpu_us_per_op": s.CPUus,
			"write_p50_ms":  s.Writer.P50ms, "write_p99_ms": s.Writer.QPS, "ingest_qps": 1 / s.CPUus,
		}
	} else {
		setup, read, restart, write := slowdown(phaseSetup), slowdown(phaseRead), slowdown(phaseRestart), slowdown(phaseWrite)
		slows = []calibration{setup, read, restart, write}
		by = map[string]float64{
			"setup_s": setup.One.QPS, "recover_s": restart.One.QPS,
			"topn_qps": 1 / read.Two.QPS, "topn_p50_ms": read.Two.P50ms, "topn_p99_ms": read.Two.P99ms,
			"cpu_us_per_op": read.CPUus,
			"write_p50_ms":  write.One.P50ms, "write_p99_ms": write.One.QPS, "ingest_qps": 1 / write.One.QPS,
		}
	}
	raw := map[string]float64{}
	for name, f := range by {
		if v, ok := r.e2e[name]; ok {
			raw[name] = v
			r.e2e[name] = v / f
		}
	}
	r.details["reference"] = map[string]any{"calibrations": r.calibs, "slowdowns": slows, "unscaled": raw}
}

// The phases of the read workloads that calibrations are taken for.
const (
	phaseSetup   = "setup"
	phaseRead    = "read"
	phaseRestart = "restart"
	phaseWrite   = "write"
)
