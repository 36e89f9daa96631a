package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func TestTopNBatchEndpointMatchesSolo(t *testing.T) {
	s, ts := newTestServer(t, 800, 3, Config{})
	batch := [][]float64{
		{0.5, 0.3, 0.2},
		{-1, 2, 0.5},
		{0, 0, 1}, // single-axis shape, still through the batch driver
		{0.5, 0.3, 0.2},
	}
	resp := postJSON(t, ts.URL+"/v1/topn/batch", TopNBatchRequest{Weights: batch, N: 12})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got TopNBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Queries) != len(batch) {
		t.Fatalf("%d query answers, want %d", len(got.Queries), len(batch))
	}
	for q, w := range batch {
		want, wantStats, err := s.Snapshot().TopN(w, 12)
		if err != nil {
			t.Fatal(err)
		}
		qr := got.Queries[q]
		if len(qr.Results) != len(want) {
			t.Fatalf("query %d: %d results, want %d", q, len(qr.Results), len(want))
		}
		for i, r := range qr.Results {
			if r.ID != want[i].ID || r.Score != want[i].Score || r.Layer != want[i].Layer {
				t.Fatalf("query %d rank %d: got %+v want %+v", q, i, r, want[i])
			}
		}
		if qr.Stats != statsJSON(wantStats) {
			t.Fatalf("query %d stats %+v, want %+v", q, qr.Stats, wantStats)
		}
	}
}

func TestTopNBatchBadRequests(t *testing.T) {
	_, ts := newTestServer(t, 100, 2, Config{MaxInFlight: 4})
	for _, tc := range []struct {
		name   string
		body   any
		status int
	}{
		{"empty batch", TopNBatchRequest{N: 5}, http.StatusBadRequest},
		{"zero n", TopNBatchRequest{Weights: [][]float64{{1, 2}}}, http.StatusBadRequest},
		{"dim mismatch", TopNBatchRequest{Weights: [][]float64{{1, 2}, {1}}, N: 5}, http.StatusBadRequest},
		{"oversized", TopNBatchRequest{Weights: make([][]float64, 5), N: 5}, http.StatusBadRequest},
	} {
		resp := postJSON(t, ts.URL+"/v1/topn/batch", tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// TestTopNBatchErrorBodies pins the shape of batch failures: every
// client error is HTTP 400 (never a 500) carrying a typed JSON
// ErrorResponse, and per-query validation failures name the offending
// query's position. Raw JSON bodies are used so malformed payloads
// (out-of-range float literals standing in for non-finite weights) can
// be exercised end to end.
func TestTopNBatchErrorBodies(t *testing.T) {
	_, ts := newTestServer(t, 100, 2, Config{})
	for _, tc := range []struct {
		name    string
		body    string
		errWant string // substring the typed error must contain
	}{
		{"empty batch", `{"weights":[],"n":5}`, "no queries"},
		{"zero n", `{"weights":[[1,2]]}`, "n must be positive"},
		{"dim mismatch names query", `{"weights":[[1,2],[1]],"n":5}`, "batch query 1"},
		{"non-finite literal", `{"weights":[[1,1e999]],"n":5}`, "bad request body"},
		{"malformed json", `{"weights":[[1,2],"n":5}`, "bad request body"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/topn/batch", "application/json",
				strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var body ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not a typed ErrorResponse: %v", err)
			}
			if body.Error == "" || !strings.Contains(body.Error, tc.errWant) {
				t.Fatalf("error %q does not mention %q", body.Error, tc.errWant)
			}
		})
	}
}

// TestBatchQueriesDuringSnapshotSwaps is the -race stress of the batch
// read path: query goroutines continuously run TopNBatch against
// whatever snapshot is current while the mutator applies insert/delete
// batches and swaps new snapshots in. Every batch must be internally
// consistent with the snapshot it ran against — bit-identical to that
// snapshot's solo TopN.
func TestBatchQueriesDuringSnapshotSwaps(t *testing.T) {
	s, _ := newTestServer(t, 600, 3, Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Mutator load: a rolling window of inserts and deletes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		id := uint64(10_000)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			recs := []core.Record{
				{ID: id, Vector: []float64{float64(i%7) - 3, float64(i%5) - 2, float64(i % 3)}},
				{ID: id + 1, Vector: []float64{float64(i%4) - 2, float64(i%9) - 4, 1}},
			}
			if err := s.Insert(ctx, recs); err != nil {
				t.Errorf("insert: %v", err)
			}
			if i > 2 {
				if err := s.Delete(ctx, []uint64{id - 4, id - 3}); err != nil {
					t.Errorf("delete: %v", err)
				}
			}
			cancel()
			id += 2
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := [][]float64{
				{1, float64(g), 0.5},
				{-0.5, 0.25, float64(g) - 1},
				{0.1, -0.9, 0.3},
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				res, stats, err := snap.TopNBatch(batch, 8)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				// Spot-check one query of each batch against the solo path
				// on the SAME snapshot (the published index is immutable, so
				// this is exact, not racy).
				q := i % len(batch)
				want, wantStats, err := snap.TopN(batch[q], 8)
				if err != nil {
					t.Errorf("reader %d solo: %v", g, err)
					return
				}
				if fmt.Sprint(res[q]) != fmt.Sprint(want) || stats[q] != wantStats {
					t.Errorf("reader %d query %d: batch %v / %v, solo %v / %v",
						g, q, res[q], stats[q], want, wantStats)
					return
				}
				for _, rs := range res {
					for j := 1; j < len(rs); j++ {
						if rs[j].Score > rs[j-1].Score {
							t.Errorf("reader %d: results out of order", g)
							return
						}
					}
				}
			}
		}(g)
	}

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Folding the final snapshot runs the structural cascades a
	// background compaction publishes. The folded index must query
	// exactly like a fresh load of its layering — same answers and the
	// same work, layer pruning included — so the cascades kept one slab
	// per layer.
	folded, err := s.Snapshot().CompactedClone()
	if err != nil {
		t.Fatal(err)
	}
	layers := make([][]core.Record, folded.NumLayers())
	for k := range layers {
		layers[k] = folded.Layer(k)
	}
	fresh, err := core.FromLayers(layers, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]float64{{1, 0, 0.5}, {-0.5, 0.25, 1}, {0.1, -0.9, 0.3}} {
		got, gotStats, err := folded.TopN(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := fresh.TopN(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || gotStats != wantStats {
			t.Errorf("folded snapshot %v / %+v, fresh load %v / %+v", got, gotStats, want, wantStats)
		}
	}
}
