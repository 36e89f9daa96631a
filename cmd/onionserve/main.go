// Command onionserve serves linear optimization queries from an Onion
// index over JSON/HTTP — the deployment shape the paper motivates
// (Section 1: interactive top-N model-based queries for e-commerce and
// multimedia search).
//
//	onionserve -index colleges.onion -addr :8080
//	onionserve -random 100000 -dim 3 -dist gaussian   # synthetic demo corpus
//	onionserve -random 100000 -data-dir /var/lib/onion # durable mutations
//
// Endpoints:
//
//	POST /v1/topn       {"weights":[...], "n":10}          → ranked results + stats
//	POST /v1/topn/batch {"weights":[[...],[...]], "n":10}  → many queries, one snapshot
//	POST /v1/search     {"weights":[...], "limit":0}       → NDJSON progressive stream
//	POST /v1/insert   {"records":[{"id":1,"vector":[...]}]}
//	POST /v1/delete   {"ids":[1,2,3]}
//	GET  /v1/metrics                                    → counters + latency quantiles
//	GET  /v1/healthz
//
// Queries run lock-free against an immutable snapshot; mutations are
// batched by a single mutator goroutine, absorbed into an unlayered
// delta buffer that every query merges on the total order, and
// published by atomic pointer swap in O(batch) — a background
// compactor folds the buffer into the layered index past
// -delta-threshold (see internal/server). With -hier-compaction the
// fold is hierarchical (paper Section 4): the corpus is partitioned by
// k-means once at boot and each compaction re-peels only the clusters
// whose membership changed, bounding fold cost by delta and cluster
// size instead of corpus size. With -shells every snapshot serves with
// spherical-shell intra-layer pruning (paper Section 6): layers are
// bucket-ordered around their centroids and queries skip the angular
// buckets whose score bound cannot reach the top-N — bit-identical
// answers, roughly half the evaluated records on uniform data (the
// shells_* counters on /v1/metrics report the saving). With -data-dir,
// every mutation
// batch is group-committed to a write-ahead log before its snapshot is
// published, and restart recovers the newest checkpoint with the log's
// valid prefix replayed into its delta buffer — no hull work — folding
// at once if that delta is already past -delta-threshold (see
// internal/wal and the README's Durability section).
// Adding -mmap serves the recovered checkpoint straight from a memory
// mapping: restart skips the decode entirely and layer extents page in
// on first touch, with -resident-budget bounding the page-cache
// footprint for corpora larger than RAM (mmap_* on /v1/metrics).
// SIGINT/SIGTERM drain active requests, flush pending mutations, and
// checkpoint the final snapshot (or persist it with -save-on-exit).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // handlers are only reachable behind -pprof
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

var (
	addrFlag     = flag.String("addr", ":8080", "listen address")
	indexFlag    = flag.String("index", "", "index file to serve (built with onionctl or Save)")
	randomFlag   = flag.Int("random", 0, "serve a synthetic corpus of this many points instead of -index")
	dimFlag      = flag.Int("dim", 3, "dimensionality of the synthetic corpus")
	distFlag     = flag.String("dist", "gaussian", "distribution of the synthetic corpus")
	seedFlag     = flag.Int64("seed", 1, "RNG seed for the synthetic corpus")
	inflightFlag = flag.Int("max-inflight", 64, "admission cap on concurrent queries")
	timeoutFlag  = flag.Duration("query-timeout", 30*time.Second, "default per-query deadline")
	resultsFlag  = flag.Int("max-results", 100_000, "cap on topn n / search limit (0 = unlimited)")
	batchFlag    = flag.Int("max-batch", 32, "max mutations coalesced per snapshot rebuild")
	deltaFlag    = flag.Int("delta-threshold", 0, "pending delta-buffer records that trigger background compaction (0 = 4096)")
	saveFlag     = flag.String("save-on-exit", "", "persist the final snapshot to this path on shutdown")
	parFlag      = flag.Int("parallelism", 0, "worker bound for hull maintenance and large-layer query scoring (0 = one per CPU, 1 = sequential)")
	dataDirFlag  = flag.String("data-dir", "", "directory for the write-ahead log and checkpoints; mutations become durable and restarts recover the last published state")
	fsyncFlag    = flag.String("fsync", "batch", "log flush policy with -data-dir: always (per record), batch (per group commit), off")
	ckptFlag     = flag.Int64("checkpoint-bytes", 0, "log size that triggers an automatic checkpoint (0 = 64 MB, negative = never)")
	pprofFlag    = flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")
	cacheFlag    = flag.Int64("cache-bytes", 0, "byte budget of the weight-keyed top-N result cache (0 = disabled)")
	cShardsFlag  = flag.Int("cache-shards", 0, "lock shards of the result cache (0 = 8)")
	hierFlag     = flag.Bool("hier-compaction", false, "fold the delta buffer per k-means cluster (paper §4) instead of re-hulling the whole index on every background compaction")
	clustersFlag = flag.Int("compaction-clusters", 0, "cluster count for -hier-compaction (0 = ~4096 records per cluster, capped at 256)")
	shellsFlag   = flag.Bool("shells", false, "enable spherical-shell intra-layer pruning (paper §6): bucket-order each layer around its centroid and skip angular buckets that cannot reach the top-N; answers are bit-identical, shells_* metrics report the saving")
	pruningFlag  = flag.String("pruning", "all", "bound-based pruning mode: all, none (paper-faithful full evaluation)")
	mmapFlag     = flag.Bool("mmap", false, "with -data-dir: serve the recovered checkpoint from a memory mapping instead of decoding it onto the heap — restart is open+map+replay, and the OS pages layer extents in on demand (bit-identical answers; mmap_* metrics report the paging)")
	budgetFlag   = flag.Int64("resident-budget", 0, "with -mmap: advise extents out (madvise DONTNEED, LRU over layers) once the mapped checkpoint's resident bytes exceed this budget; 0 = unlimited")
)

func main() {
	flag.Parse()
	log.SetPrefix("onionserve: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	if *deltaFlag < 0 {
		log.Fatalf("-delta-threshold must not be negative, got %d", *deltaFlag)
	}

	// The listener comes up before state recovery, serving a boot
	// handler: /v1/healthz/live answers 200 (the process is alive),
	// everything else — including /v1/healthz/ready — answers 503. A
	// node replaying a large WAL is therefore visibly "live but not
	// ready", and a shard coordinator keeps it out of the fan-out order
	// instead of timing out against a closed port.
	var root atomic.Value // http.Handler
	root.Store(bootHandler())
	httpSrv := &http.Server{
		Addr: *addrFlag,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			root.Load().(http.Handler).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addrFlag)
		errc <- httpSrv.ListenAndServe()
	}()

	ix, mgr, err := openState()
	if err != nil {
		log.Fatal(err)
	}
	// Loaded indexes do not persist construction options; apply the
	// parallelism knob here so maintenance cascades and large-layer
	// scoring use the configured worker bound (clones inherit it).
	ix.SetParallelism(*parFlag)
	log.Printf("index ready: %d records, %d attributes, %d layers", ix.Len(), ix.Dim(), ix.NumLayers())
	if *hierFlag {
		if ix.ClusterCompactor() != nil {
			// The checkpoint carried the cluster assignment (v2 aux blob):
			// it re-attached during recovery with no k-means and no
			// re-peel, so skip the from-scratch Attach entirely.
			log.Print("hier-compaction: cluster assignment restored from checkpoint")
		} else if ix.NumLayers() == 0 {
			log.Print("hier-compaction: layered corpus empty, compacting flat until restart with data")
		} else {
			// Clusters the layered base; a delta the restart replayed
			// from the log stays pending for the first fold.
			start := time.Now()
			c, err := hierarchy.Attach(ix, hierarchy.CompactorOptions{
				Clusters: *clustersFlag,
				Build:    core.Options{Seed: *seedFlag, Parallelism: *parFlag},
				Seed:     *seedFlag,
			})
			if err != nil {
				log.Fatalf("hier-compaction: %v", err)
			}
			log.Printf("hier-compaction: %d clusters over %d records in %v",
				c.NumClusters(), c.Len(), time.Since(start).Round(time.Millisecond))
		}
	}

	pruneMode, err := core.ParsePruningMode(*pruningFlag)
	if err != nil {
		log.Fatal(err)
	}
	if *shellsFlag {
		log.Printf("shells: spherical-shell pruning enabled (pruning mode %s)", pruneMode)
	}
	cfg := server.Config{
		MaxInFlight:    *inflightFlag,
		MaxBatchOps:    *batchFlag,
		QueryTimeout:   *timeoutFlag,
		MaxResults:     *resultsFlag,
		CacheBytes:     *cacheFlag,
		CacheShards:    *cShardsFlag,
		DeltaThreshold: *deltaFlag,
		Shells:         *shellsFlag,
		Pruning:        pruneMode,
	}
	if mgr != nil {
		// Assign only when a manager exists: a nil *wal.Manager stored in
		// the interface field would be non-nil to the server and panic on
		// first commit.
		cfg.WAL = mgr
	}
	srv := server.New(ix, cfg)
	if mgr != nil {
		srv.AttachVars("wal", mgr.Vars())
		if mv := mgr.MmapVars(); mv != nil {
			srv.AttachVars("mmap", mv)
			srv.SetServingMode("mmap", *budgetFlag)
			log.Printf("mmap: serving %d bytes of checkpoint extents from the page cache (budget %d)",
				mgr.Mapped().SizeBytes(), *budgetFlag)
		}
	}
	srv.PublishVars("onionserve") // visible on /debug/vars too, if imported

	handler := srv.Handler()
	if *pprofFlag {
		// Profiling endpoints are opt-in: they expose internals (heap
		// contents, command line) no production query port should leak by
		// default. The pprof package registers on DefaultServeMux at
		// import; mount that mux under its canonical prefix next to the
		// API routes.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		handler = mux
		log.Print("pprof profiling enabled on /debug/pprof/")
	}
	root.Store(handler)
	log.Print("ready: serving queries")

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Print("shutting down: draining active requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Close(shutCtx); err != nil {
		log.Printf("mutator drain: %v", err)
	}
	if mgr != nil {
		// Checkpoint the final snapshot so the next boot needs no replay,
		// then release the log.
		if err := mgr.Checkpoint(srv.Snapshot()); err != nil {
			log.Printf("shutdown checkpoint: %v (log remains authoritative)", err)
		}
		if err := mgr.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
	if *saveFlag != "" {
		if err := storage.Write(*saveFlag, srv.Snapshot()); err != nil {
			log.Printf("save-on-exit: %v", err)
		} else {
			log.Printf("snapshot saved to %s", *saveFlag)
		}
	}
	log.Print("bye")
}

// bootHandler answers for the window between listen and recovery:
// alive, not ready, no state to serve.
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz/live", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true,"ready":false}`+"\n")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"starting: recovering state"}`+"\n")
	})
	return mux
}

// openState resolves the serving index. With -data-dir, recovered
// durable state wins over -index/-random (those only seed a fresh
// directory); without it, the index is purely in-memory.
func openState() (*core.Index, *wal.Manager, error) {
	if *dataDirFlag == "" {
		ix, err := loadIndex()
		return ix, nil, err
	}
	mode, err := wal.ParseMode(*fsyncFlag)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	mgr, ix, err := wal.Open(*dataDirFlag, wal.Config{
		Fsync:           mode,
		CheckpointBytes: *ckptFlag,
		Options:         core.Options{Seed: *seedFlag, Parallelism: *parFlag},
		Mmap:            *mmapFlag,
		ResidentBudget:  *budgetFlag,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("data dir %s: %w", *dataDirFlag, err)
	}
	if ix != nil {
		log.Printf("recovered %s (epoch %d, log %d bytes) in %v",
			*dataDirFlag, mgr.Seq(), mgr.LogSize(), time.Since(start).Round(time.Millisecond))
		return ix, mgr, nil
	}
	// Fresh directory: seed it from -index/-random and make that initial
	// state durable before serving.
	if ix, err = loadIndex(); err != nil {
		return nil, nil, err
	}
	if err := mgr.Bootstrap(ix); err != nil {
		return nil, nil, fmt.Errorf("bootstrap %s: %w", *dataDirFlag, err)
	}
	log.Printf("bootstrapped %s from initial corpus", *dataDirFlag)
	return ix, mgr, nil
}

func loadIndex() (*core.Index, error) {
	switch {
	case *indexFlag != "" && *randomFlag > 0:
		return nil, errors.New("-index and -random are mutually exclusive")
	case *indexFlag != "":
		start := time.Now()
		ix, err := storage.Load(*indexFlag)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", *indexFlag, err)
		}
		log.Printf("loaded %s in %v", *indexFlag, time.Since(start).Round(time.Millisecond))
		return ix, nil
	case *randomFlag > 0:
		dist, err := workload.ParseDistribution(*distFlag)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		pts := workload.Points(dist, *randomFlag, *dimFlag, *seedFlag)
		recs := make([]core.Record, len(pts))
		for i, p := range pts {
			recs[i] = core.Record{ID: uint64(i + 1), Vector: p}
		}
		ix, err := core.Build(recs, core.Options{Seed: *seedFlag, Parallelism: *parFlag})
		if err != nil {
			return nil, err
		}
		log.Printf("built synthetic %s %dD corpus (n=%d) in %v",
			*distFlag, *dimFlag, *randomFlag, time.Since(start).Round(time.Millisecond))
		return ix, nil
	default:
		fmt.Fprintln(os.Stderr, "onionserve: need -index FILE or -random N")
		flag.Usage()
		os.Exit(2)
		return nil, nil
	}
}
