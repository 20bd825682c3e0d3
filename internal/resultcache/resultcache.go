// Package resultcache is the engine-wide result cache sitting above the
// mount service: where the mount service dedups the *extraction* of one
// file across concurrent queries, the result cache dedups the *entire
// execution* of one query across clients and across time. Entries are
// final materialized results, stored frozen and served as O(1)
// copy-on-write shares (vector.Batch.Share), keyed by the canonical plan
// fingerprint plus an invalidation epoch:
//
//   - Fingerprint keying: the plan layer normalizes semantically
//     equivalent spellings (reordered conjuncts, swapped join sides,
//     aliases, foldable constants) onto one plan.Fingerprint, so a zoom
//     session re-issuing the same query in different shapes keeps
//     hitting one entry.
//   - Invalidation epochs: every entry is stamped with the epoch current
//     at store time, and only current-epoch entries are served. A repo or
//     ingestion-cache change bumps the epoch (the engine wires the hook),
//     atomically invalidating every retained result. An execution that
//     straddles the bump publishes to the riders that joined it before
//     the bump but is not retained — and a query arriving after the bump
//     neither serves stale entries nor rides stale flights: it has
//     observed "the data changed" and re-executes.
//   - Query-granular single-flight: concurrent identical queries
//     coalesce onto one execution, mirroring the mount service's flights
//     one layer up — the leader executes, riders block and then receive
//     shares of the frozen result, paying O(1) instead of a full Qf+Qs
//     execution each.
//   - Storage: entries live in an internal/store keyed by fingerprint,
//     which owns the byte-budget LRU (Batch.Bytes, the unit the
//     ingestion cache charges), the disk tier and the fill generations;
//     the cache's invalidation epoch is the store's generation.
//   - Subsumption index: entries whose plans carry a subsumption summary
//     (plan.SubsumptionInfo) are additionally indexed by their
//     plan.SubsumptionKey — the bucket of structurally identical plans
//     differing only in re-filterable interval constants. On an exact
//     fingerprint miss, GetSubsuming probes the narrow query's bucket for
//     a current-epoch entry whose intervals contain the query's; the
//     engine re-filters that wider frozen entry in memory instead of
//     mounting files (the classic semantic-caching move).
//
// All methods are nil-safe: a nil *Cache never caches and never
// coalesces, so the engine threads it through unconditionally.
package resultcache

import (
	"errors"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/store"
)

// Config parameterizes a Cache.
type Config struct {
	// MaxBytes bounds resident result bytes; <= 0 means unlimited.
	MaxBytes int64
	// SpillDir enables the disk tier (see manifest.go): cold entries are
	// demoted to spill files here instead of evicted, and the directory
	// doubles as the restart-persistence store. Empty disables the tier.
	SpillDir string
	// DiskMaxBytes bounds the disk tier; <= 0 means unlimited.
	DiskMaxBytes int64
	// Disk and Clock charge demotion writes and promotion reads to the
	// engine's modeled I/O accounting. The zero-value Disk charges
	// nothing.
	Disk  storage.DiskModel
	Clock *storage.Clock
}

// Stats is a snapshot of cache counters.
type Stats struct {
	// Hits counts probes served from a stored entry; Riders counts
	// queries that coalesced onto another client's in-flight execution.
	Hits, Misses, Riders int64
	// Stores / RejectedStores split completed executions offered for
	// retention into retained ones and ones whose execution straddled an
	// epoch bump.
	Stores, RejectedStores int64
	// Invalidations counts entries dropped by epoch bumps.
	Invalidations int64
	// Subsumption counters: probes of the secondary index on exact miss,
	// hits served by re-filtering a wider entry, the bytes of wider
	// entries served that way instead of re-executed and re-mounted, and
	// the cumulative wall time the engine spent re-filtering.
	SubsumptionProbes, SubsumptionHits int64
	SubsumptionBytesSaved              int64
	RefilterWall                       time.Duration
	// WarmedFromDisk counts entries warmed from a previous process's
	// manifest at open; Epoch is the current invalidation epoch.
	WarmedFromDisk int64
	Epoch          uint64
	// The store's budget evictions, tier moves and occupancy.
	store.Stats
}

// Outcome reports how a Do call was satisfied.
type Outcome struct {
	// Hit: served from the cache (stored entry, or a flight ridden).
	Hit bool
	// Rider: the call coalesced onto another client's in-flight
	// execution. Set on error returns too, so a caller can tell an
	// inherited failure (the LEADER died — e.g. of its own context)
	// from its own and re-resolve instead of failing a live query.
	Rider bool
	// Stored: this call led the execution and the result was retained.
	Stored bool
}

// Cache is the result cache. It is safe for concurrent use.
type Cache struct {
	cfg   Config
	store *store.Store[plan.Fingerprint, info]

	mu      sync.Mutex
	flights map[plan.Fingerprint]*flight

	// subindex is the secondary semantic index: subsumption bucket →
	// fingerprints of entries stored with that key. Entries the store
	// has since dropped are pruned when a probe finds them gone.
	subindex map[plan.SubsumptionKey]map[plan.Fingerprint]struct{}

	hits, misses, riders int64
	stores, rejected     int64
	invalidated          int64

	subProbes, subHits int64
	subBytesSaved      int64
	refilterWall       time.Duration

	warmed int64
}

// info is what the cache keeps with each stored batch list: the result
// schema, to rebuild the materialization, and the subsumption summary
// (nil: not semantically indexed).
type info struct {
	schema []plan.ColInfo
	sub    *plan.SubsumptionInfo
}

// flight is one in-progress execution other identical queries wait on.
// epoch is the invalidation epoch the execution began under: a query
// arriving after a bump must not ride a pre-change flight.
type flight struct {
	done  chan struct{}
	mat   *exec.Materialized // frozen at publish
	err   error
	epoch uint64
}

// New returns a cache over the configuration. With a spill directory
// configured it is also the warm-restart path: a manifest left by a
// previous Close is loaded and its entries served from disk.
func New(cfg Config) *Cache {
	c := &Cache{
		cfg: cfg,
		store: store.New[plan.Fingerprint, info](store.Config{
			MaxBytes: cfg.MaxBytes, SpillDir: cfg.SpillDir, SpillPattern: spillPattern,
			DiskMaxBytes: cfg.DiskMaxBytes, Disk: cfg.Disk, Clock: cfg.Clock,
		}),
		flights:  make(map[plan.Fingerprint]*flight),
		subindex: make(map[plan.SubsumptionKey]map[plan.Fingerprint]struct{}),
	}
	if cfg.SpillDir != "" {
		c.loadManifest()
	}
	return c
}

// Epoch returns the current invalidation epoch.
func (c *Cache) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.store.Gen()
}

// BumpEpoch advances the invalidation epoch, dropping every stored
// entry, the disk tier's included: results computed before the bump are
// never served after it, nor warm a later process. In-flight executions
// keep serving their riders but will not be retained.
func (c *Cache) BumpEpoch() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.subindex = make(map[plan.SubsumptionKey]map[plan.Fingerprint]struct{})
	c.mu.Unlock()
	c.add(&c.invalidated, int64(c.store.Clear()))
}

// add bumps one of the cache's counters.
func (c *Cache) add(counter *int64, n int64) {
	c.mu.Lock()
	*counter += n
	c.mu.Unlock()
}

// Get returns the frozen entry for a fingerprint at the current epoch.
// The returned materialization holds the cache's own (frozen) batches:
// serve it to a client through exec.ServeCachedResult, which emits
// copy-on-write shares.
func (c *Cache) Get(fp plan.Fingerprint) (*exec.Materialized, bool) {
	if c == nil {
		return nil, false
	}
	mat, ok := c.lookup(fp)
	if ok {
		c.add(&c.hits, 1)
	} else {
		c.add(&c.misses, 1)
	}
	return mat, ok
}

// lookup serves fp's entry from the store, promoting it from disk if
// need be.
func (c *Cache) lookup(fp plan.Fingerprint) (*exec.Materialized, bool) {
	batches, in, ok := c.store.Get(fp)
	if !ok {
		return nil, false
	}
	return &exec.Materialized{Schema: in.schema, Batches: batches}, true
}

// SubsumeHit describes a wider entry found by GetSubsuming: whose
// fingerprint it is stored under, the frozen materialization to
// re-filter, and its resident bytes (the re-execution the probe saved).
type SubsumeHit struct {
	Fp    plan.Fingerprint
	Mat   *exec.Materialized
	Bytes int64
}

// GetSubsuming probes the semantic index for a current-epoch entry able
// to answer the query summarized by sub: same subsumption bucket,
// intervals containing the query's. The smallest such entry wins (least
// re-filter work). The caller re-filters the returned frozen
// materialization through sub.Refilter. Misses and nil summaries are
// not counted against the exact-match hit/miss counters.
func (c *Cache) GetSubsuming(fp plan.Fingerprint, sub *plan.SubsumptionInfo) (SubsumeHit, bool) {
	if c == nil || sub == nil || sub.Key.IsZero() {
		return SubsumeHit{}, false
	}
	c.add(&c.subProbes, 1)
	// A spilled candidate can lose its promotion (corrupt file) and drop
	// out; re-select until a candidate is served or none remain.
	for {
		c.mu.Lock()
		best, bytes, ok := c.subsumingLocked(fp, sub)
		c.mu.Unlock()
		if !ok {
			return SubsumeHit{}, false
		}
		if mat, ok := c.lookup(best); ok {
			c.add(&c.subHits, 1)
			return SubsumeHit{Fp: best, Mat: mat, Bytes: bytes}, true
		}
	}
}

// subsumingLocked selects the smallest stored entry, other than fp's
// own, whose intervals contain sub's, pruning bucket members the store
// no longer holds.
func (c *Cache) subsumingLocked(fp plan.Fingerprint, sub *plan.SubsumptionInfo) (plan.Fingerprint, int64, bool) {
	var best plan.Fingerprint
	bestBytes, found := int64(0), false
	bucket := c.subindex[sub.Key]
	for cand := range bucket {
		in, bytes, ok := c.store.Meta(cand)
		if !ok {
			delete(bucket, cand)
			continue
		}
		if cand == fp || !plan.Subsumes(in.sub, sub) {
			continue
		}
		if !found || bytes < bestBytes {
			best, bestBytes, found = cand, bytes, true
		}
	}
	if len(bucket) == 0 {
		delete(c.subindex, sub.Key)
	}
	return best, bestBytes, found
}

// NoteRefilter accounts one subsumption serve: the wall time spent
// re-filtering and the bytes of re-execution it saved.
func (c *Cache) NoteRefilter(wall time.Duration, saved int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refilterWall += wall
	c.subBytesSaved += saved
}

// PutAt retains a completed result whose execution began at startEpoch:
// a result computed across an invalidation (the epoch moved on) is
// rejected — it may reflect pre-change data. The entry holds the
// materialization frozen: the caller keeps its handle and any later
// mutation on either side materializes a private copy. A non-nil sub
// additionally indexes the entry for semantic (subsumption) probes.
func (c *Cache) PutAt(fp plan.Fingerprint, mat *exec.Materialized, startEpoch uint64, sub *plan.SubsumptionInfo) bool {
	if c == nil || mat == nil {
		return false
	}
	stored := c.store.Put(fp, info{schema: mat.Schema, sub: sub}, mat.Batches, startEpoch)
	c.mu.Lock()
	if stored {
		c.stores++
		c.indexLocked(fp, sub)
	} else {
		c.rejected++
	}
	c.mu.Unlock()
	return stored
}

// indexLocked adds fp to the semantic index when it carries a summary.
func (c *Cache) indexLocked(fp plan.Fingerprint, sub *plan.SubsumptionInfo) {
	if sub == nil || sub.Key.IsZero() {
		return
	}
	bucket := c.subindex[sub.Key]
	if bucket == nil {
		bucket = make(map[plan.Fingerprint]struct{})
		c.subindex[sub.Key] = bucket
	}
	bucket[fp] = struct{}{}
}

// Do resolves a query through the cache with query-granular
// single-flight: a stored current-epoch entry is served immediately; an
// in-flight identical execution is ridden (block, then share its
// result); otherwise compute runs as the leader and its result is
// published to every rider and — epoch permitting — retained. compute
// returns the materialized result and whether to retain it at all. A
// non-nil sub semantically indexes the retained entry. A nil cache
// degenerates to calling compute.
func (c *Cache) Do(fp plan.Fingerprint, sub *plan.SubsumptionInfo, compute func() (*exec.Materialized, bool, error)) (*exec.Materialized, Outcome, error) {
	if c == nil {
		mat, _, err := compute()
		return mat, Outcome{}, err
	}
	if mat, ok := c.lookup(fp); ok {
		c.add(&c.hits, 1)
		return mat, Outcome{Hit: true}, nil
	}
	c.mu.Lock()
	epoch := c.store.Gen()
	if f, ok := c.flights[fp]; ok && f.epoch == epoch {
		// Riding is a hit, not a miss: the work is not repeated. Only a
		// current-epoch flight qualifies — a query arriving after an
		// invalidation has observed "the data changed" and must
		// re-execute, not ride a pre-change execution (whose result the
		// store side will likewise reject).
		select {
		case <-f.done:
			// Published, and leaving the table once stored: its result
			// serves like the entry it becomes. A failed one is not
			// ridden; this query leads afresh.
			if f.err == nil {
				c.hits++
				c.mu.Unlock()
				return f.mat, Outcome{Hit: true}, nil
			}
		default:
			c.riders++
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				return nil, Outcome{Rider: true}, f.err
			}
			return f.mat, Outcome{Hit: true, Rider: true}, nil
		}
	}
	f := &flight{done: make(chan struct{}), epoch: epoch}
	// Overwrites any stale-epoch flight: its leader still publishes to
	// its own (pre-bump) riders and removes only its own table entry.
	c.flights[fp] = f
	c.mu.Unlock()

	// publish runs exactly once — on the normal paths below, or from the
	// deferred recovery if compute panics: the flight must leave the
	// table and its riders must wake (with an error) either way, or every
	// later identical query would block forever on a dead flight. The
	// result is stored before the flight leaves the table, so a query
	// that misses both the store and the table comes after the store.
	published := false
	publish := func(mat *exec.Materialized, retain bool, err error) bool {
		published = true
		if err == nil {
			// Freeze before publishing: riders and the stored entry share
			// the leader's storage, and the first mutation through any
			// handle (including the leader's own) copies first.
			mat.Freeze()
		}
		f.mat, f.err = mat, err
		close(f.done)
		stored := err == nil && retain && c.PutAt(fp, mat, epoch, sub)
		c.mu.Lock()
		// Remove only our own flight: a stale-epoch flight may have been
		// superseded in the table by a post-invalidation one.
		if c.flights[fp] == f {
			delete(c.flights, fp)
		}
		c.mu.Unlock()
		return stored
	}
	defer func() {
		if !published {
			publish(nil, false, errLeaderAborted)
		}
	}()

	// A leader that stored and left the table between our probe and our
	// flight registration has answered this query already.
	if mat, ok := c.lookup(fp); ok {
		c.add(&c.hits, 1)
		publish(mat, false, nil)
		return mat, Outcome{Hit: true}, nil
	}
	c.add(&c.misses, 1)
	mat, retain, err := compute()
	stored := publish(mat, retain, err)
	if err != nil {
		return nil, Outcome{}, err
	}
	return mat, Outcome{Stored: stored}, nil
}

// errLeaderAborted is what riders see when the leading execution
// panicked out of Do instead of returning.
var errLeaderAborted = errors.New("resultcache: leading execution aborted")

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{Stats: c.store.Stats(), Epoch: c.store.Gen()}
	c.mu.Lock()
	defer c.mu.Unlock()
	st.Hits, st.Misses, st.Riders = c.hits, c.misses, c.riders
	st.Stores, st.RejectedStores = c.stores, c.rejected
	st.Invalidations = c.invalidated
	st.SubsumptionProbes, st.SubsumptionHits = c.subProbes, c.subHits
	st.SubsumptionBytesSaved, st.RefilterWall = c.subBytesSaved, c.refilterWall
	st.WarmedFromDisk = c.warmed
	return st
}
