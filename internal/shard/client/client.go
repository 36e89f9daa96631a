// Package client is the shard-aware HTTP client the coordinator (and
// any Go program that wants to talk to onionserve directly) uses. One
// Endpoint wraps one onionserve base URL with a bounded connection
// pool, a per-request timeout, and retry-on-idempotent-read: queries
// and readiness probes are retried across transient transport failures
// because re-reading an immutable snapshot is free of side effects,
// while mutations are never retried by this layer — an insert that
// died mid-flight may have been applied, and blind retry would turn
// one network blip into a duplicate-ID error (or worse, a double
// apply under missing-ok deletes).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// Config tunes one endpoint. The zero value is ready to use.
type Config struct {
	// Timeout is the per-attempt deadline (dial + request + response
	// body). 0 means 10s; negative disables the client-side deadline
	// (the caller's context still applies).
	Timeout time.Duration
	// MaxConns bounds the connection pool to this endpoint — total
	// concurrent connections, established plus dialing. 0 means 32. The
	// bound is what keeps a coordinator fanning out to many shards from
	// holding file descriptors proportional to its query concurrency
	// times its shard count.
	MaxConns int
	// RetryReads is how many extra attempts an idempotent read gets
	// after a transport-level failure (connection refused, reset,
	// timeout dialing). 0 means 1; negative disables retry. HTTP-level
	// errors are never retried here: the server answered, and its
	// answer (400, 429, 503) is meaningful to the caller.
	RetryReads int
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxConns == 0 {
		c.MaxConns = 32
	}
	if c.RetryReads == 0 {
		c.RetryReads = 1
	}
	return c
}

// StatusError is a non-2xx answer from the server: the transport
// worked, the server decided. Callers branch on Code (e.g. the
// coordinator maps 503 from a recovering replica to "try the next
// one") and surface Msg, which carries the server's ErrorResponse.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server status %d: %s", e.Code, e.Msg)
}

// Endpoint is one onionserve node. Safe for concurrent use.
type Endpoint struct {
	base string
	cfg  Config
	hc   *http.Client
}

// New returns an endpoint for the given base URL (e.g.
// "http://10.0.0.7:8080", no trailing slash required).
func New(base string, cfg Config) *Endpoint {
	cfg = cfg.withDefaults()
	tr := &http.Transport{
		MaxConnsPerHost:     cfg.MaxConns,
		MaxIdleConnsPerHost: cfg.MaxConns,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Endpoint{
		base: strings.TrimRight(base, "/"),
		cfg:  cfg,
		hc:   &http.Client{Transport: tr},
	}
}

// Base returns the endpoint's base URL.
func (e *Endpoint) Base() string { return e.base }

// TopN runs one top-N query. Idempotent: retried per Config.RetryReads.
func (e *Endpoint) TopN(ctx context.Context, req server.TopNRequest) (*server.TopNResponse, error) {
	var out server.TopNResponse
	if err := e.postJSON(ctx, "/v1/topn", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// TopNBatch runs a batch of queries in one request. Idempotent: retried.
func (e *Endpoint) TopNBatch(ctx context.Context, req server.TopNBatchRequest) (*server.TopNBatchResponse, error) {
	var out server.TopNBatchResponse
	if err := e.postJSON(ctx, "/v1/topn/batch", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Insert submits records. Never retried (see the package comment).
func (e *Endpoint) Insert(ctx context.Context, recs []core.Record) (*server.MutateResponse, error) {
	req := server.InsertRequest{Records: make([]server.RecordJSON, len(recs))}
	for i, r := range recs {
		req.Records[i] = server.RecordJSON{ID: r.ID, Vector: r.Vector}
	}
	var out server.MutateResponse
	if err := e.postJSON(ctx, "/v1/insert", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Delete submits IDs for deletion. missingOK asks the server to skip
// (rather than reject) IDs it does not hold — the mode broadcast
// deletes rely on. Never retried.
func (e *Endpoint) Delete(ctx context.Context, ids []uint64, missingOK bool) (*server.MutateResponse, error) {
	req := server.DeleteRequest{IDs: ids, MissingOK: missingOK}
	var out server.MutateResponse
	if err := e.postJSON(ctx, "/v1/delete", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready probes GET /v1/healthz/ready. It reports true only for a 200:
// a 503 (recovering / still booting), a transport failure, and a
// pre-split server with no such route all count as not ready. Probes
// are not retried — the health loop that calls this is itself the
// retry.
func (e *Endpoint) Ready(ctx context.Context) bool {
	ctx, cancel := e.attemptCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/v1/healthz/ready", nil)
	if err != nil {
		return false
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return false
	}
	defer drain(resp)
	return resp.StatusCode == http.StatusOK
}

// Metrics fetches the raw /v1/metrics JSON document.
func (e *Endpoint) Metrics(ctx context.Context) (json.RawMessage, error) {
	ctx, cancel := e.attemptCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
	}
	return body, nil
}

func (e *Endpoint) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.cfg.Timeout > 0 {
		return context.WithTimeout(ctx, e.cfg.Timeout)
	}
	return ctx, func() {}
}

// postJSON performs one JSON POST with the endpoint's timeout, decoding
// a 2xx body into out and a non-2xx body into a *StatusError.
// idempotent requests are re-attempted on transport errors while the
// caller's context is still live.
func (e *Endpoint) postJSON(ctx context.Context, path string, in, out any, idempotent bool) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	attempts := 1
	if idempotent && e.cfg.RetryReads > 0 {
		attempts += e.cfg.RetryReads
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			// The caller gave up (hedge lost, deadline, client went away):
			// report the cancellation, not the last transport wobble.
			return err
		}
		lastErr = e.postOnce(ctx, path, body, out)
		if lastErr == nil {
			return nil
		}
		var se *StatusError
		if errors.As(lastErr, &se) {
			return lastErr // the server answered; retrying re-asks a settled question
		}
	}
	return lastErr
}

func (e *Endpoint) postOnce(ctx context.Context, path string, body []byte, out any) error {
	ctx, cancel := e.attemptCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode/100 != 2 {
		var eresp server.ErrorResponse
		msg := http.StatusText(resp.StatusCode)
		if b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
			if json.Unmarshal(b, &eresp) == nil && eresp.Error != "" {
				msg = eresp.Error
			}
		}
		return &StatusError{Code: resp.StatusCode, Msg: msg}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drain consumes and closes a response body so the bounded pool can
// reuse the connection instead of tearing it down.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
