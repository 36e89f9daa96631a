package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func mkResults(n int, base float64) []core.Result {
	out := make([]core.Result, n)
	for i := range out {
		out[i] = core.Result{ID: uint64(i + 1), Score: base - float64(i), Layer: i % 3}
	}
	return out
}

func sameRes(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPrefixServing(t *testing.T) {
	c := New(1<<20, 4)
	full := mkResults(10, 100)
	c.Put("k", 0, 10, full, core.Stats{RecordsEvaluated: 42})

	for _, n := range []int{1, 5, 10} {
		res, st, ok := c.Get("k", n, 0)
		if !ok {
			t.Fatalf("n=%d: miss, want hit", n)
		}
		if !sameRes(res, full[:n]) {
			t.Fatalf("n=%d: wrong prefix", n)
		}
		if st.RecordsEvaluated != 42 {
			t.Fatalf("n=%d: stats not preserved", n)
		}
	}
	// Deeper than cached: miss (caller recomputes and upgrades).
	if _, _, ok := c.Get("k", 11, 0); ok {
		t.Fatal("n>k served from a non-exhausted entry")
	}
	// Upgrade in place, then the deeper n hits.
	c.Put("k", 0, 20, mkResults(20, 100), core.Stats{})
	if res, _, ok := c.Get("k", 11, 0); !ok || len(res) != 11 {
		t.Fatal("upgraded entry did not serve deeper n")
	}
	// A shallower same-epoch Put must not downgrade.
	c.Put("k", 0, 3, mkResults(3, 100), core.Stats{})
	if res, _, ok := c.Get("k", 20, 0); !ok || len(res) != 20 {
		t.Fatal("deep entry was downgraded by a shallow Put")
	}
}

func TestExhaustedEntryServesAnyN(t *testing.T) {
	c := New(1<<20, 1)
	// Computed with k=50 but the index only held 7 records: complete
	// ranking, serves arbitrarily deep requests.
	c.Put("k", 0, 50, mkResults(7, 9), core.Stats{})
	res, _, ok := c.Get("k", 1000, 0)
	if !ok || len(res) != 7 {
		t.Fatalf("exhausted entry: ok=%v len=%d, want complete ranking", ok, len(res))
	}
}

func TestEpochInvalidation(t *testing.T) {
	c := New(1<<20, 2)
	c.Put("k", c.Epoch(), 5, mkResults(5, 1), core.Stats{})
	if _, _, ok := c.Get("k", 5, c.Epoch()); !ok {
		t.Fatal("fresh entry missed")
	}
	c.Invalidate()
	if _, _, ok := c.Get("k", 5, c.Epoch()); ok {
		t.Fatal("stale entry served after Invalidate")
	}
	// Dropping the old epoch's entries must also release their bytes.
	if got := c.Counters().Bytes; got != 0 {
		t.Fatalf("stale entry still accounted: %d bytes", got)
	}
	if c.Counters().Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", c.Counters().Invalidations)
	}
	// A result computed at an old epoch is never served at the current
	// one, whichever shard it lands in.
	c.Put("old", 0, 5, mkResults(5, 1), core.Stats{})
	if _, _, ok := c.Get("old", 5, c.Epoch()); ok {
		t.Fatal("entry tagged with an old epoch served at the current epoch")
	}
}

// entryBytes is what an entry of n results under key is charged.
func entryBytes(key string, n int) int64 {
	return int64(len(key)) + resultSize*int64(n) + entryOverhead
}

// TestShardHoldsOneEpoch puts fresh keys across 1,000 invalidations —
// every mutation ack bumps the epoch, and a fresh weight vector is never
// looked up again — under a budget far above 1,000 epochs' worth. Each
// shard must hold only what was put into it at the last epoch it saw;
// entries of dead epochs must not sit in the LRU until the budget
// evicts them. Once every shard has seen the newest epoch, the cache's
// bytes are exactly that epoch's puts.
func TestShardHoldsOneEpoch(t *testing.T) {
	c := New(1<<30, 4)
	last := make(map[*shard]int64) // bytes put at the shard's last epoch
	lastEpoch := make(map[*shard]uint64)
	fresh := 0
	putFresh := func(epoch uint64) {
		key := fmt.Sprintf("fresh-%07d", fresh)
		fresh++
		sh := c.shardOf(key)
		if lastEpoch[sh] != epoch {
			last[sh], lastEpoch[sh] = 0, epoch
		}
		c.Put(key, epoch, 10, mkResults(10, 1), core.Stats{})
		last[sh] += entryBytes(key, 10)
	}
	for i := 0; i < 1000; i++ {
		e := c.Epoch()
		for j := 0; j < 5; j++ {
			putFresh(e)
		}
		for si, sh := range c.shards {
			if sh.bytes > last[sh] {
				t.Fatalf("epoch %d: shard %d holds %d bytes, put %d at its last epoch", e, si, sh.bytes, last[sh])
			}
		}
		c.Invalidate()
	}
	e := c.Epoch()
	var want int64
	for j := 0; j < 5; j++ {
		putFresh(e)
	}
	for _, sh := range c.shards {
		if lastEpoch[sh] == e {
			want += last[sh]
		}
	}
	// Touch every shard at the newest epoch with a miss.
	touched := make(map[*shard]bool)
	for probe := 0; len(touched) < len(c.shards); probe++ {
		key := fmt.Sprintf("probe-%d", probe)
		touched[c.shardOf(key)] = true
		c.Get(key, 1, e)
	}
	if got := c.Counters().Bytes; got != want {
		t.Fatalf("cache_bytes = %d after every shard saw the newest epoch, want its puts' %d", got, want)
	}
}

// TestOlderEpochPutNotInstalled: a result computed before a publish
// reaches its shard after a request at the new epoch did. Installing it
// would charge bytes for an entry no request can be served from.
func TestOlderEpochPutNotInstalled(t *testing.T) {
	c := New(1<<20, 1)
	c.Invalidate()
	if _, _, ok := c.Get("new", 5, 1); ok {
		t.Fatal("hit on an empty cache")
	}
	before := c.Counters().Bytes
	c.Put("old", 0, 5, mkResults(5, 1), core.Stats{})
	if got := c.Counters().Bytes; got != before {
		t.Fatalf("an epoch-0 Put into an epoch-1 shard was installed: bytes %d -> %d", before, got)
	}
	if _, _, ok := c.Get("old", 5, 0); ok {
		t.Fatal("an epoch-0 Put into an epoch-1 shard is served at epoch 0")
	}
}

// TestOlderEpochLookupKeepsNewer: a reader that read the epoch before a
// publish looks up a shard that already moved on. It must miss, and the
// newer entries must stay for the readers of the current epoch.
func TestOlderEpochLookupKeepsNewer(t *testing.T) {
	c := New(1<<20, 1)
	c.Invalidate()
	c.Put("k", 1, 5, mkResults(5, 1), core.Stats{})
	if _, _, ok := c.Get("k", 5, 0); ok {
		t.Fatal("an epoch-1 entry served an epoch-0 lookup")
	}
	if _, _, ok := c.Get("k", 5, 1); !ok {
		t.Fatal("an epoch-0 lookup dropped the epoch-1 entry")
	}
	res, _, out, err := c.GetOrCompute("k", 5, 0, func() ([]core.Result, core.Stats, error) {
		return mkResults(5, 9), core.Stats{}, nil
	})
	if err != nil || out != Miss || !sameRes(res, mkResults(5, 9)) {
		t.Fatalf("epoch-0 GetOrCompute: out=%v err=%v, want its own computation", out, err)
	}
	if res, _, ok := c.Get("k", 5, 1); !ok || !sameRes(res, mkResults(5, 1)) {
		t.Fatal("an epoch-0 GetOrCompute replaced or dropped the epoch-1 entry")
	}
}

func TestLRUEvictionBoundsBytes(t *testing.T) {
	// One shard so the LRU order is global; budget fits ~4 entries.
	per := int64(len("key-000")) + resultSize*10 + entryOverhead
	c := New(4*per, 1)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("key-%03d", i), 0, 10, mkResults(10, float64(i)), core.Stats{})
	}
	ct := c.Counters()
	if ct.Bytes > 4*per {
		t.Fatalf("bytes %d exceed budget %d", ct.Bytes, 4*per)
	}
	if ct.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", ct.Evictions)
	}
	// Oldest entries are gone, newest survive.
	if _, _, ok := c.Get("key-000", 10, 0); ok {
		t.Fatal("LRU entry survived past the budget")
	}
	if _, _, ok := c.Get("key-009", 10, 0); !ok {
		t.Fatal("most recent entry was evicted")
	}
	// Touching an entry protects it: get key-006, insert one more, the
	// untouched key-007 goes first.
	c.Get("key-006", 10, 0)
	c.Put("key-new", 0, 10, mkResults(10, 0), core.Stats{})
	if _, _, ok := c.Get("key-006", 10, 0); !ok {
		t.Fatal("recently used entry evicted before older one")
	}
	if _, _, ok := c.Get("key-007", 10, 0); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	c := New(64, 1) // budget below one entry's overhead
	c.Put("k", 0, 10, mkResults(10, 1), core.Stats{})
	if _, _, ok := c.Get("k", 1, 0); ok {
		t.Fatal("oversize entry admitted")
	}
	if c.Counters().Bytes != 0 {
		t.Fatal("oversize entry left bytes accounted")
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New(1<<20, 4)
	const followers = 8
	var computes atomic.Int32
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	want := mkResults(10, 50)

	var wg sync.WaitGroup
	results := make([][]core.Result, followers+1)
	outcomes := make([]Outcome, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, _, out, err := c.GetOrCompute("k", 10, 0, func() ([]core.Result, core.Stats, error) {
			computes.Add(1)
			close(leaderIn) // leader is inside compute: the flight is registered
			<-release
			return want, core.Stats{}, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[0], outcomes[0] = res, out
	}()
	<-leaderIn
	var ready sync.WaitGroup
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Done()
			res, _, out, err := c.GetOrCompute("k", 3, 0, func() ([]core.Result, core.Stats, error) {
				computes.Add(1)
				return mkResults(3, 50), core.Stats{}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], outcomes[i] = res, out
		}(i)
	}
	// Let every follower at least reach GetOrCompute while the leader is
	// parked inside compute, then release the leader. A follower that
	// passes the shard lock before the leader's completion joins the
	// flight (Coalesced); one scheduled after it lands on the freshly
	// installed entry (Hit). Either way the computation ran once.
	ready.Wait()
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want exactly 1 (no coalescing)", got)
	}
	if outcomes[0] != Miss {
		t.Fatalf("leader outcome = %v, want Miss", outcomes[0])
	}
	for i := 1; i <= followers; i++ {
		if outcomes[i] != Coalesced && outcomes[i] != Hit {
			t.Fatalf("follower %d outcome = %v, want Coalesced or Hit", i, outcomes[i])
		}
		if !sameRes(results[i], want[:3]) {
			t.Fatalf("follower %d got wrong prefix", i)
		}
	}
	ct := c.Counters()
	if ct.Misses != 1 || ct.Coalesced+ct.Hits != followers {
		t.Fatalf("counters = %+v, want misses=1 and coalesced+hits=%d", ct, followers)
	}
	if ct.Coalesced == 0 {
		t.Fatalf("no follower coalesced onto the parked leader (counters %+v)", ct)
	}
}

func TestSingleflightLeaderErrorFallsBack(t *testing.T) {
	c := New(1<<20, 1)
	boom := errors.New("leader context expired")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, err := c.GetOrCompute("k", 5, 0, func() ([]core.Result, core.Stats, error) {
			close(leaderIn)
			<-release
			return nil, core.Stats{}, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-leaderIn
	done := make(chan struct{})
	var solo atomic.Int32
	go func() {
		defer close(done)
		res, _, out, err := c.GetOrCompute("k", 5, 0, func() ([]core.Result, core.Stats, error) {
			solo.Add(1)
			return mkResults(5, 1), core.Stats{}, nil
		})
		if err != nil || out != Miss || len(res) != 5 {
			t.Errorf("follower after failed leader: res=%d out=%v err=%v", len(res), out, err)
		}
	}()
	close(release)
	wg.Wait()
	<-done
	if solo.Load() != 1 {
		t.Fatal("follower did not fall back to its own compute")
	}
	// The failed flight must not have cached anything...
	if _, _, ok := c.Get("k", 5, 0); !ok {
		// ...but the follower's solo compute did.
		t.Fatal("follower's successful solo compute was not cached")
	}
}

func TestIncompatibleFlightComputesSolo(t *testing.T) {
	c := New(1<<20, 1)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.GetOrCompute("k", 5, 0, func() ([]core.Result, core.Stats, error) {
			close(leaderIn)
			<-release
			return mkResults(5, 1), core.Stats{}, nil
		})
	}()
	<-leaderIn
	// Deeper than the in-flight computation: must not wait on it (it
	// could not serve n=10), must compute solo right now.
	res, _, out, err := c.GetOrCompute("k", 10, 0, func() ([]core.Result, core.Stats, error) {
		return mkResults(10, 1), core.Stats{}, nil
	})
	if err != nil || out != Miss || len(res) != 10 {
		t.Fatalf("deep request during shallow flight: res=%d out=%v err=%v", len(res), out, err)
	}
	// Same for a request from a newer epoch racing an old-epoch flight.
	res2, _, out2, err2 := c.GetOrCompute("k", 5, 1, func() ([]core.Result, core.Stats, error) {
		return mkResults(5, 2), core.Stats{}, nil
	})
	if err2 != nil || out2 != Miss || len(res2) != 5 {
		t.Fatalf("new-epoch request during old-epoch flight: res=%d out=%v err=%v", len(res2), out2, err2)
	}
	close(release)
	wg.Wait()
}

func TestNilCacheDegradesToUncached(t *testing.T) {
	var c *Cache = New(0, 8) // disabled: New returns nil
	if c != nil {
		t.Fatal("New(0) should disable the cache")
	}
	if c.Epoch() != 0 {
		t.Fatal("nil Epoch")
	}
	c.Invalidate() // must not panic
	if _, _, ok := c.Get("k", 1, 0); ok {
		t.Fatal("nil Get hit")
	}
	ran := false
	res, _, out, err := c.GetOrCompute("k", 3, 0, func() ([]core.Result, core.Stats, error) {
		ran = true
		return mkResults(3, 1), core.Stats{}, nil
	})
	if !ran || err != nil || out != Miss || len(res) != 3 {
		t.Fatal("nil GetOrCompute did not run compute directly")
	}
	if c.Counters() != (Counters{}) {
		t.Fatal("nil Counters non-zero")
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	// Hammer one small cache from many goroutines with overlapping keys,
	// depths and epoch bumps; the race detector is the assertion.
	c := New(8<<10, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k%d", i%7)
				e := c.Epoch()
				n := 1 + i%12
				res, _, _, err := c.GetOrCompute(key, n, e, func() ([]core.Result, core.Stats, error) {
					return mkResults(n, float64(i)), core.Stats{}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(res) > n {
					t.Errorf("got %d results for n=%d", len(res), n)
					return
				}
				if g == 0 && i%50 == 0 {
					c.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
}
