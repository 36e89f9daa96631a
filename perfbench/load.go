package main

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is one completed operation of a load loop.
type opResult struct {
	i  int32 // operation index within the loop
	ok bool  // 200 answer
	t  int64 // ns from the loop's start to sending the request
	ns int64 // round trip: request sent to response fully read
}

// end returns the ns from the loop's start to the response.
func (op opResult) end() int64 { return op.t + op.ns }

// loopResult is what one closed-loop phase observed.
type loopResult struct {
	ops     []opResult // in completion order per connection, merged
	kept    map[int][]byte
	failed  int
	elapsed time.Duration
	start   time.Time
}

func (lr *loopResult) okCount() int { return len(lr.ops) - lr.failed }

// latMs returns the round trips of the successful operations in ms.
func (lr *loopResult) latMs() []float64 {
	out := make([]float64, 0, len(lr.ops))
	for _, op := range lr.ops {
		if op.ok {
			out = append(out, float64(op.ns)/1e6)
		}
	}
	return out
}

// runLoop drives a closed loop: conns connections, each an application
// thread that sends its next request only after reading the previous
// response. Operation indexes are handed out in order until n are
// taken, or, with n < 0, until stop is set. build renders request i
// into dst; keep(i) asks for the response body of operation i to be
// retained. A transport error or a non-200 answer fails the operation;
// nothing is retried.
func runLoop(addr string, conns, n int, stop *atomic.Bool, build func(i int, dst []byte) []byte, keep func(i int) bool) (*loopResult, error) {
	var next atomic.Int64
	per := make([][]opResult, conns)
	kept := make([]map[int][]byte, conns)
	fails := make([]int, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h, err := dialHTTP(addr)
			if err != nil {
				errs[c] = err
				return
			}
			defer func() { h.Close() }()
			var req, body []byte
			for {
				i := int(next.Add(1) - 1)
				if (n >= 0 && i >= n) || (n < 0 && stop.Load()) {
					return
				}
				req = build(i, req[:0])
				t0 := time.Now()
				status, err := h.do(req, &body)
				op := opResult{i: int32(i), t: int64(t0.Sub(start)), ns: int64(time.Since(t0)), ok: err == nil && status == 200}
				if err != nil {
					if errs[c] = h.redial(); errs[c] != nil {
						return
					}
				}
				if !op.ok {
					fails[c]++
				} else if keep != nil && keep(i) {
					if kept[c] == nil {
						kept[c] = map[int][]byte{}
					}
					kept[c][i] = append([]byte(nil), body...)
				}
				per[c] = append(per[c], op)
			}
		}(c)
	}
	wg.Wait()
	lr := &loopResult{elapsed: time.Since(start), start: start, kept: map[int][]byte{}}
	for c := range per {
		if errs[c] != nil {
			return nil, errs[c]
		}
		lr.ops = append(lr.ops, per[c]...)
		for i, b := range kept[c] {
			lr.kept[i] = b
		}
		lr.failed += fails[c]
	}
	return lr, nil
}

// appendRequest renders one request with a JSON body (possibly empty),
// plus the X-Request-Id header the traced server keys its spans by when
// reqID > 0.
func appendRequest(dst []byte, method, path string, body []byte, reqID uint64) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	if reqID > 0 {
		dst = append(dst, "\r\nX-Request-Id: "...)
		dst = strconv.AppendUint(dst, reqID, 10)
	}
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// sampled reports whether operation i is in the seeded one-in-every
// sample.
func sampled(seed int64, i, every int) bool {
	r := rng{s: uint64(seed)<<20 ^ uint64(i)}
	return r.next()%uint64(every) == 0
}
