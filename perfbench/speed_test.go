package main

import (
	"math"
	"testing"
)

// Each timed figure is scaled by its own kind of calibration figure,
// from the loop shaped like the phase that measured it and, in the read
// workloads, from the calibrations taken around that phase: on a
// machine f times slower for that figure, durations shrink and rates
// grow by f. Memory and space are never scaled.
func TestScaleToReference(t *testing.T) {
	raw := map[string]float64{
		"setup_s": 4, "recover_s": 1, "topn_qps": 1000, "topn_p50_ms": 0.5, "topn_p99_ms": 2,
		"cpu_us_per_op": 300, "write_p50_ms": 0.4, "write_p99_ms": 3, "ingest_qps": 200,
		"peak_rss_mb": 64, "space_amp": 1.5,
	}
	typical := calibration{
		One:    loopFigures{QPS: 10000, P50ms: 0.1, P99ms: 0.2},
		Two:    loopFigures{QPS: 16000, P50ms: 0.11, P99ms: 0.4},
		Writer: loopFigures{QPS: 2000, P50ms: 0.5, P99ms: 2},
		Reader: loopFigures{QPS: 1500, P50ms: 0.6, P99ms: 1.5},
		CPUus:  80,
	}
	// slower returns a calibration of phase on a machine on which every
	// loop runs f times slower than typical and the CPU fc times; it
	// answered 1000 requests, whose latencies have the loop's p50 and
	// p99.
	slower := func(phase string, f, fc float64) calibration {
		c := calibration{Phase: phase, CPUus: typical.CPUus * fc, done: 1000}
		for _, l := range []struct{ dst, typ *loopFigures }{{&c.One, &typical.One}, {&c.Two, &typical.Two}, {&c.Writer, &typical.Writer}, {&c.Reader, &typical.Reader}} {
			*l.dst = loopFigures{QPS: l.typ.QPS / f, P50ms: l.typ.P50ms * f, P99ms: l.typ.P99ms * f}
			for i := 0; i <= 100; i++ {
				if i <= 50 {
					l.dst.lat = append(l.dst.lat, l.dst.P50ms)
				} else {
					l.dst.lat = append(l.dst.lat, l.dst.P99ms)
				}
			}
		}
		c.cpuS = c.CPUus * float64(c.done) / 1e6
		return c
	}
	// outlier's throughput is dropped by the medians; it answered
	// nothing, so it adds no latencies or CPU time to the pools.
	outlier := func(phase string) calibration {
		c := slower(phase, 9, 9)
		c.cpuS, c.done = 0, 0
		for _, l := range []*loopFigures{&c.One, &c.Two, &c.Writer, &c.Reader} {
			l.lat = nil
		}
		return c
	}
	check := func(name string, r *runner, want map[string]float64) {
		t.Helper()
		for k, w := range want {
			if math.Abs(r.e2e[k]-w) > 1e-9*w {
				t.Errorf("%s: %s = %v, want %v", name, k, r.e2e[k], w)
			}
		}
	}
	newRunner := func(durable bool) *runner {
		r := &runner{durable: durable, e2e: map[string]float64{}, details: map[string]any{}}
		for k, v := range raw {
			r.e2e[k] = v
		}
		return r
	}

	// Read workloads: each phase ran at its own speed.
	const fs, fr, frs, fw, fc = 1.5, 2.0, 2.5, 4.0, 3.0
	r := newRunner(false)
	for _, p := range []struct {
		phase string
		f     float64
	}{{phaseSetup, fs}, {phaseRead, fr}, {phaseRestart, frs}, {phaseWrite, fw}} {
		c := slower(p.phase, p.f, fc)
		if p.phase == phaseWrite {
			// The one-connection loop's own tail does not scale the
			// write p99.
			for i := 51; i < len(c.One.lat); i++ {
				c.One.lat[i] *= 10
			}
		}
		r.calibs = append(r.calibs, c, outlier(p.phase), c)
	}
	r.scaleToReference(typical)
	check("read workload", r, map[string]float64{
		"setup_s": 4 / fs, "recover_s": 1 / frs, "topn_qps": 1000 * fr, "topn_p50_ms": 0.5 / fr,
		"topn_p99_ms": 2 / fr, "cpu_us_per_op": 300 / fc, "write_p50_ms": 0.4 / fw,
		"write_p99_ms": 3 / fw, "ingest_qps": 200 * fw, "peak_rss_mb": 64, "space_amp": 1.5,
	})

	// durable-rw: every calibration counts for every figure.
	const f = 2.0
	r = newRunner(true)
	c := slower("", f, fc)
	// Neither loop's own tail scales durable-rw's p99s.
	for _, l := range []*loopFigures{&c.Writer, &c.Reader} {
		for i := 51; i < len(l.lat); i++ {
			l.lat[i] *= 10
		}
	}
	r.calibs = []calibration{c, outlier(""), c}
	r.scaleToReference(typical)
	check("durable-rw", r, map[string]float64{
		"setup_s": 4 / f, "recover_s": 1 / f, "topn_qps": 1000 * f, "topn_p50_ms": 0.5 / f,
		"topn_p99_ms": 2 / f, "cpu_us_per_op": 300 / fc, "write_p50_ms": 0.4 / f,
		"write_p99_ms": 3 / f, "ingest_qps": 200 * fc, "peak_rss_mb": 64, "space_amp": 1.5,
	})
}
