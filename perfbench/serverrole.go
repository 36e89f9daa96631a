package main

import (
	"bufio"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The server role is the program under test in its own process. It
// calls the public functions onionserve's main calls, with the
// server.Config onionserve builds from its default flags plus a 16 MiB
// result cache. It talks to the load process over three stdout lines:
//
//	addr <host:port>      listening (503 until ready, like onionserve's boot handler)
//	ready <spans JSON>    serving; the spans time each set-up stage
//	drained               after SIGTERM: mutations drained, compaction
//	                      finished, checkpoint (or snapshot file) written
//
// After "drained" queries are still answered until stdin closes; then
// the HTTP server shuts down and the process exits.

const (
	cacheBytes     = 16 << 20 // result-cache budget every workload serves with
	deltaThreshold = 4096     // the server's default delta threshold (Config.DeltaThreshold 0)
	maxResults     = 100_000  // onionserve's -max-results default
)

// serveConfig is the server.Config onionserve builds from its default
// flags, plus the benchmark's cache budget. Shells, Pruning and every
// other option the engine may drop stay at their zero values.
func serveConfig() server.Config {
	return server.Config{
		MaxInFlight:  64,
		MaxBatchOps:  32,
		QueryTimeout: 30 * time.Second,
		MaxResults:   maxResults,
		CacheBytes:   cacheBytes,
	}
}

// serveOptions are the core.Options of onionserve's -seed and
// -parallelism defaults.
func serveOptions() core.Options { return core.Options{Seed: 1} }

func runServer(args []string) error {
	fl := flag.NewFlagSet("serve", flag.ContinueOnError)
	corpusPath := fl.String("corpus", "", "corpus file to build the index from")
	loadPath := fl.String("load", "", "index file to serve instead of building (onionserve -index)")
	dataDir := fl.String("data-dir", "", "durable data directory (onionserve -data-dir, fsync batch)")
	savePath := fl.String("save", "", "write the final snapshot here on SIGTERM (onionserve -save-on-exit)")
	report := fl.String("report", "", "traced run: write spans and counters here before \"drained\"")
	reference := fl.String("reference", "", "serve the fixed reference server instead, logging its writes to this file (see speed.go)")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *reference != "" {
		return runReference(*reference)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var root atomic.Pointer[http.Handler]
	boot := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"starting: recovering state"}`, http.StatusServiceUnavailable)
	}))
	root.Store(&boot)
	httpSrv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*root.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Printf("addr %s\n", ln.Addr())

	var tr *tracer
	if *report != "" {
		tr = newTracer()
	}
	setup := newSpanLog()
	ix, mgr, err := openState(*corpusPath, *loadPath, *dataDir, setup)
	if err != nil {
		return err
	}
	ix.SetParallelism(0) // onionserve's -parallelism default
	cfg := serveConfig()
	if mgr != nil {
		cfg.WAL = mgr
		if tr != nil {
			cfg.WAL = &tracedCommitter{inner: mgr, tr: tr}
		}
	}
	srv := server.New(ix, cfg)
	if mgr != nil {
		srv.AttachVars("wal", mgr.Vars())
	}
	handler := srv.Handler()
	if tr != nil {
		handler = tr.attach(srv, handler)
	}
	root.Store(&handler)
	ready, err := json.Marshal(setup.spans)
	if err != nil {
		return err
	}
	fmt.Printf("ready %s\n", ready)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain in onionserve's order, minus the listener: mutations and any
	// in-flight compaction first, then the checkpoint, while queries keep
	// being answered.
	shutCtx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.Close(shutCtx); err != nil {
		return fmt.Errorf("mutator drain: %w", err)
	}
	if mgr != nil {
		start := setup.now()
		if err := mgr.Checkpoint(srv.Snapshot()); err != nil {
			return fmt.Errorf("shutdown checkpoint: %w", err)
		}
		if tr != nil {
			tr.log.add(span{Name: "wal.checkpoint", Start: start, End: setup.now(), Parent: -1})
		}
	}
	if *savePath != "" {
		if err := storage.Write(*savePath, srv.Snapshot()); err != nil {
			return fmt.Errorf("save: %w", err)
		}
	}
	if tr != nil {
		if err := tr.finish(*report); err != nil {
			return err
		}
	}
	fmt.Println("drained")

	// Serve until the load process closes stdin, then shut down.
	io.Copy(io.Discard, os.Stdin)
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if tr != nil {
		tr.stop()
	}
	if mgr != nil {
		return mgr.Close()
	}
	return nil
}

// openState builds, loads or recovers the served index the way
// onionserve's openState and loadIndex do, recording one span per
// set-up stage in st.
func openState(corpusPath, loadPath, dataDir string, st *spanLog) (*core.Index, *wal.Manager, error) {
	opts := serveOptions()
	stage := func(name string, fn func() error) error {
		start := st.now()
		err := fn()
		st.add(span{Name: name, Start: start, End: st.now(), Parent: -1})
		return err
	}
	var mgr *wal.Manager
	var ix *core.Index
	if dataDir != "" {
		if err := stage("wal.open", func() (err error) {
			mgr, ix, err = wal.Open(dataDir, wal.Config{Fsync: wal.FsyncBatch, Options: opts})
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("data dir %s: %w", dataDir, err)
		}
		if ix != nil {
			return ix, mgr, nil
		}
	}
	switch {
	case loadPath != "":
		if err := stage("storage.load", func() (err error) {
			ix, err = storage.Load(loadPath)
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", loadPath, err)
		}
	case corpusPath != "":
		buf, err := os.ReadFile(corpusPath)
		if err != nil {
			return nil, nil, err
		}
		recs, err := decodeCorpus(buf)
		if err != nil {
			return nil, nil, err
		}
		crecs := make([]core.Record, len(recs))
		for i, r := range recs {
			crecs[i] = core.Record{ID: r.ID, Vector: r.Vec}
		}
		if err := stage("core.build", func() (err error) {
			ix, err = core.Build(crecs, opts)
			return err
		}); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("serve: need -corpus, -load or a recoverable -data-dir")
	}
	if mgr != nil {
		if err := stage("wal.bootstrap", func() error { return mgr.Bootstrap(ix) }); err != nil {
			return nil, nil, fmt.Errorf("bootstrap %s: %w", dataDir, err)
		}
	}
	return ix, mgr, nil
}

// stageSeconds returns the duration of the named set-up span (0 when
// the launch had no such stage).
func stageSeconds(spans []span, name string) float64 {
	for _, s := range spans {
		if s.Name == name {
			return float64(s.dur()) / 1e9
		}
	}
	return 0
}

// newestCheckpoint returns the path of the highest-epoch checkpoint in
// dir, or "" when there is none.
func newestCheckpoint(dir string) string {
	names, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.onion"))
	best := ""
	for _, n := range names {
		if n > best { // fixed-width hex epochs sort lexically
			best = n
		}
	}
	return best
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// expvarInt reads an integer counter from the server's metric map.
func expvarInt(m *expvar.Map, key string) int64 {
	if v, ok := m.Get(key).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// readLine reads one protocol line with the given prefix from r.
func readLine(r *bufio.Reader, prefix string) (string, error) {
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("server exited before %q: %w", prefix, err)
		}
		line = strings.TrimRight(line, "\n")
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(rest), nil
		}
	}
}
