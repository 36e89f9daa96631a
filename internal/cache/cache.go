// Package cache implements a weight-keyed top-N result cache for the
// Onion serving stack: a sharded, byte-bounded LRU from a canonical
// weight key (core.WeightKey — exact weight bits, dimension-distinct)
// to an ordered top-K result list.
//
// Three properties make it safe to put in front of a snapshot-isolated
// index:
//
//   - Prefix serving. The query walk is tie-break-stable (see package
//     topk): the top-n result of a weight vector is always the first n
//     entries of its top-K result for any K ≥ n. A cached top-K entry
//     therefore answers every n ≤ K bit-identically; n > K recomputes
//     and upgrades the entry in place. An entry whose result list came
//     up short of its K holds the complete ranking and serves any n.
//
//   - Singleflight coalescing. Concurrent misses on the same key (at
//     the same epoch, at a depth the leader covers) wait for one layer
//     walk instead of each running their own — the thundering-herd
//     shape of hot ranking traffic.
//
//   - Epoch invalidation. Each shard holds the entries of one snapshot
//     epoch. A mutation publish bumps the epoch with one atomic add, and
//     the first lookup or Put that reaches a shard at a newer epoch drops
//     all of the shard's entries at once; a lookup at an older epoch
//     misses, and a result computed at an older epoch is not installed.
//     So the bytes the cache holds are the live epoch's entries, plus
//     those of shards no request has reached since the bump. The
//     ordering contract that makes this airtight:
//
//     readers:    e := cache.Epoch();  snap := load snapshot;  compute;  Put(key, e, …)
//     publisher:  store new snapshot;  cache.Invalidate();     reply to mutators
//
//     A reader's epoch is read BEFORE its snapshot load, and the
//     publisher bumps AFTER the new snapshot is visible, so a result
//     computed against the old snapshot can never be tagged with the
//     new epoch (the reader that read the new epoch necessarily loads
//     the new snapshot). And because the bump happens before mutation
//     callers are released, any query admitted after a mutation was
//     acknowledged reads the bumped epoch and rejects every pre-swap
//     entry: an acknowledged write is never followed by a stale read.
//     The converse race — a fresh result tagged with the old epoch —
//     only wastes the computation: its Put finds the shard newer and
//     installs nothing, or installs it in a shard the next lookup at
//     the newer epoch empties.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Outcome classifies how a lookup was satisfied.
type Outcome int

const (
	// Miss: this caller ran the computation itself.
	Miss Outcome = iota
	// Hit: served from a cached entry without computing.
	Hit
	// Coalesced: served from a concurrent leader's in-flight computation.
	Coalesced
)

// Counters is a point-in-time snapshot of the cache's telemetry.
type Counters struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Coalesced     int64 `json:"coalesced"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Bytes         int64 `json:"bytes"`
}

// entryOverhead approximates the fixed per-entry cost (map slot, list
// element, struct header) charged against the byte budget on top of the
// key and result payload.
const entryOverhead = 96

// resultSize is the in-memory footprint of one core.Result (ID, Score,
// Layer plus alignment).
const resultSize = 24

type entry struct {
	key string
	// k is the depth the results were computed with; the entry serves
	// any n ≤ k (prefix of a deterministic ranking).
	k int
	// exhausted marks a result list shorter than k: the index held fewer
	// records, so this is the complete ranking and serves any n.
	exhausted bool
	results   []core.Result
	stats     core.Stats
	size      int64
	elem      *list.Element
}

// flight is one in-progress computation that concurrent equal lookups
// may wait on instead of recomputing.
type flight struct {
	epoch   uint64
	k       int
	done    chan struct{}
	results []core.Result
	stats   core.Stats
	err     error
}

type shard struct {
	mu      sync.Mutex
	epoch   uint64 // the epoch every entry was computed at
	entries map[string]*entry
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[string]*flight
}

// Cache is the sharded LRU. A nil *Cache is a valid disabled cache:
// Epoch reports 0, Invalidate is a no-op, Get always misses, and
// GetOrCompute runs the computation directly.
type Cache struct {
	shards   []*shard
	perShard int64
	epoch    atomic.Uint64

	hits          atomic.Int64
	misses        atomic.Int64
	coalesced     atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	bytes         atomic.Int64
}

// New creates a cache bounded to roughly maxBytes across the given
// number of shards (0 shards means 8). maxBytes <= 0 disables caching:
// New returns nil, and every method on the nil cache degrades to the
// uncached behavior.
func New(maxBytes int64, shards int) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	if shards <= 0 {
		shards = 8
	}
	c := &Cache{shards: make([]*shard, shards), perShard: maxBytes / int64(shards)}
	if c.perShard < 1 {
		c.perShard = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries: make(map[string]*entry),
			lru:     list.New(),
			flights: make(map[string]*flight),
		}
	}
	return c
}

// Epoch returns the current invalidation epoch. Queries must read it
// BEFORE loading the snapshot they will compute against (see the
// package comment for why the order matters).
func (c *Cache) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// Invalidate bumps the epoch, logically discarding every cached entry.
// The publisher must call it AFTER the new snapshot is visible and
// BEFORE acknowledging the mutation to its caller. Each shard drops its
// entries when the first request at the new epoch reaches it.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.epoch.Add(1)
	c.invalidations.Add(1)
}

// Counters returns a snapshot of the cache telemetry (zero for a nil
// cache).
func (c *Cache) Counters() Counters {
	if c == nil {
		return Counters{}
	}
	return Counters{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Bytes:         c.bytes.Load(),
	}
}

// fnv-1a; the keys are raw float bits, already well-mixed, but the hash
// keeps pathological workloads from pinning one shard.
func (c *Cache) shardOf(key string) *shard {
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return c.shards[h%uint64(len(c.shards))]
}

// Get serves key at depth n if a compatible entry exists at the given
// epoch. The returned slice is owned by the cache and must be treated
// as read-only. Counts a hit or a miss.
func (c *Cache) Get(key string, n int, epoch uint64) ([]core.Result, core.Stats, bool) {
	if c == nil {
		return nil, core.Stats{}, false
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	ent := sh.lookup(c, key, n, epoch)
	if ent == nil {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, core.Stats{}, false
	}
	res, st := prefix(ent.results, n), ent.stats
	sh.mu.Unlock()
	c.hits.Add(1)
	return res, st, true
}

// at reports whether the shard serves epoch. A newer epoch first drops
// every entry the shard holds, all computed at an older one; an older
// epoch leaves the shard alone. Caller holds sh.mu.
func (sh *shard) at(c *Cache, epoch uint64) bool {
	if epoch < sh.epoch {
		return false
	}
	if epoch > sh.epoch {
		clear(sh.entries)
		sh.lru.Init()
		c.bytes.Add(-sh.bytes)
		sh.bytes = 0
		sh.epoch = epoch
	}
	return true
}

// lookup returns a servable entry or nil. Caller holds sh.mu.
func (sh *shard) lookup(c *Cache, key string, n int, epoch uint64) *entry {
	if !sh.at(c, epoch) {
		return nil
	}
	ent, ok := sh.entries[key]
	if !ok {
		return nil
	}
	if n > ent.k && !ent.exhausted {
		return nil // deeper than cached: recompute (and upgrade via Put)
	}
	sh.lru.MoveToFront(ent.elem)
	return ent
}

// Put stores results computed at depth k under the given epoch. The
// cache takes ownership of the results slice. A result computed at an
// epoch older than the shard's is not installed. An entry that is
// already at least as deep is never downgraded; a shallower one is
// replaced in place (the "upgrade" of prefix serving).
func (c *Cache) Put(key string, epoch uint64, k int, results []core.Result, stats core.Stats) {
	if c == nil {
		return
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	sh.put(c, key, epoch, k, results, stats)
	sh.mu.Unlock()
}

// put is Put with sh.mu held.
func (sh *shard) put(c *Cache, key string, epoch uint64, k int, results []core.Result, stats core.Stats) {
	if !sh.at(c, epoch) {
		return
	}
	if old, ok := sh.entries[key]; ok {
		if old.k >= k {
			sh.lru.MoveToFront(old.elem)
			return
		}
		sh.remove(c, old)
	}
	ent := &entry{
		key:       key,
		k:         k,
		exhausted: len(results) < k,
		results:   results,
		stats:     stats,
		size:      int64(len(key)) + resultSize*int64(len(results)) + entryOverhead,
	}
	if ent.size > c.perShard {
		return // would evict the whole shard and still not fit
	}
	ent.elem = sh.lru.PushFront(ent)
	sh.entries[key] = ent
	sh.bytes += ent.size
	c.bytes.Add(ent.size)
	for sh.bytes > c.perShard {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		sh.remove(c, back.Value.(*entry))
		c.evictions.Add(1)
	}
}

// remove unlinks an entry. Caller holds sh.mu.
func (sh *shard) remove(c *Cache, ent *entry) {
	delete(sh.entries, ent.key)
	sh.lru.Remove(ent.elem)
	sh.bytes -= ent.size
	c.bytes.Add(-ent.size)
}

// GetOrCompute is the query fast path: serve a hit, join a compatible
// in-flight computation, or run compute and (on success) install the
// result. compute must produce the top-n for the snapshot the caller
// loaded after reading epoch. The returned slice is owned by the cache
// when the outcome is Hit or Coalesced; callers must not modify it.
//
// Coalescing rules: a waiter joins an in-flight computation only when
// the flight was started at the same epoch and at a depth covering n.
// If the leader fails (e.g. its request context expired), waiters fall
// back to their own compute — one caller's deadline must not fail
// another's request. An incompatible flight (older epoch, shallower
// depth, or a concurrent deeper request) computes solo without waiting.
func (c *Cache) GetOrCompute(key string, n int, epoch uint64, compute func() ([]core.Result, core.Stats, error)) ([]core.Result, core.Stats, Outcome, error) {
	if c == nil {
		res, st, err := compute()
		return res, st, Miss, err
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	if ent := sh.lookup(c, key, n, epoch); ent != nil {
		res, st := prefix(ent.results, n), ent.stats
		sh.mu.Unlock()
		c.hits.Add(1)
		return res, st, Hit, nil
	}
	if f, ok := sh.flights[key]; ok && f.epoch == epoch && f.k >= n {
		sh.mu.Unlock()
		<-f.done
		if f.err == nil {
			c.coalesced.Add(1)
			return prefix(f.results, n), f.stats, Coalesced, nil
		}
		c.misses.Add(1)
		res, st, err := compute()
		if err == nil {
			c.Put(key, epoch, n, res, st)
		}
		return res, st, Miss, err
	}
	var lead *flight
	if _, busy := sh.flights[key]; !busy {
		lead = &flight{epoch: epoch, k: n, done: make(chan struct{})}
		sh.flights[key] = lead
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	res, st, err := compute()
	if lead != nil {
		lead.results, lead.stats, lead.err = res, st, err
		sh.mu.Lock()
		if err == nil {
			sh.put(c, key, epoch, n, res, st)
		}
		if sh.flights[key] == lead {
			delete(sh.flights, key)
		}
		sh.mu.Unlock()
		close(lead.done)
	} else if err == nil {
		c.Put(key, epoch, n, res, st)
	}
	return res, st, Miss, err
}

// prefix returns the first n results (all of them when the ranking is
// shorter — the index held fewer records).
func prefix(res []core.Result, n int) []core.Result {
	if n < len(res) {
		return res[:n:n]
	}
	return res
}
