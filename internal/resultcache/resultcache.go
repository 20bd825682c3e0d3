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
//   - Byte-budget LRU: resident results are accounted with Batch.Bytes
//     (the unit the ingestion cache charges) on one ledger, and under
//     pressure the least recently served entry goes first.
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
	"container/list"
	"errors"
	"os"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Config parameterizes a Cache.
type Config struct {
	// MaxBytes bounds resident result bytes; <= 0 means unlimited.
	MaxBytes int64
	// SpillDir enables the disk tier (see spill.go): cold entries are
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
	// Evictions counts LRU budget evictions; Invalidations counts entries
	// dropped by epoch bumps.
	Evictions, Invalidations int64
	// Subsumption counters: probes of the secondary index on exact miss,
	// hits served by re-filtering a wider entry, the bytes of wider
	// entries served that way instead of re-executed and re-mounted, and
	// the cumulative wall time the engine spent re-filtering.
	SubsumptionProbes, SubsumptionHits int64
	SubsumptionBytesSaved              int64
	RefilterWall                       time.Duration
	// Disk-tier counters: entries demoted to spill files instead of
	// evicted, spilled entries promoted back on a hit, entries dropped by
	// the disk tier's own LRU, and entries warmed from a previous
	// process's manifest at open.
	Demotions, Promotions, DiskEvictions, WarmedFromDisk int64
	// BytesResident / Entries describe current occupancy; BytesOnDisk /
	// DiskEntries the disk tier's; Epoch is the current invalidation
	// epoch.
	BytesResident int64
	Entries       int
	BytesOnDisk   int64
	DiskEntries   int
	Epoch         uint64
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
	cfg Config

	mu      sync.Mutex
	epoch   uint64
	entries map[plan.Fingerprint]*entry
	flights map[plan.Fingerprint]*flight

	// The two tiers' ledgers. A resident entry sits in order (front =
	// most recently served) and counts against bytes; a spilled entry
	// sits in diskOrder (front = most recently demoted) and counts
	// against diskBytes. An entry moving between tiers (see spill.go)
	// sits in neither list and counts against neither ledger.
	order     *list.List
	bytes     int64
	diskOrder *list.List
	diskBytes int64

	// subindex is the secondary semantic index: subsumption bucket →
	// fingerprints of entries carrying that key. Only entries stored
	// with a non-nil summary appear.
	subindex map[plan.SubsumptionKey]map[plan.Fingerprint]struct{}

	hits, misses, riders int64
	stores, rejected     int64
	evictions            int64
	invalidated          int64

	subProbes, subHits int64
	subBytesSaved      int64
	refilterWall       time.Duration

	demotions, promotions, diskEvictions, warmed int64
}

// entry is one cached result. Its tier state:
//
//   - resident: mat set, el in order, path empty;
//   - demoting: mat set, el nil — its spill file is being written, and
//     hits are still served from mat;
//   - spilled: mat nil, el in diskOrder, path names the spill file;
//   - loading: mat nil, el nil, loading open — one probe is reading the
//     spill file and the others wait on loading.
type entry struct {
	fp      plan.Fingerprint
	mat     *exec.Materialized
	bytes   int64
	epoch   uint64
	sub     *plan.SubsumptionInfo // nil: not semantically indexed
	schema  []plan.ColInfo        // result schema, kept for promotion
	el      *list.Element
	path    string
	loading chan struct{}
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
		cfg:       cfg,
		entries:   make(map[plan.Fingerprint]*entry),
		order:     list.New(),
		flights:   make(map[plan.Fingerprint]*flight),
		subindex:  make(map[plan.SubsumptionKey]map[plan.Fingerprint]struct{}),
		diskOrder: list.New(),
	}
	if c.spillEnabled() {
		os.MkdirAll(cfg.SpillDir, 0o755)
		c.loadManifest()
	}
	return c
}

// Epoch returns the current invalidation epoch.
func (c *Cache) Epoch() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// BumpEpoch advances the invalidation epoch, dropping every stored
// entry: results computed before the bump are never served after it.
// In-flight executions keep serving their riders but will not be
// retained.
func (c *Cache) BumpEpoch() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.epoch++
	c.invalidated += int64(len(c.entries))
	// The disk tier invalidates with everything else: pre-change results
	// must not survive to warm a post-change process either. Files of
	// entries between tiers belong to the goroutine moving them, which
	// removes them when its commit finds the entry gone.
	var files []string
	for el := c.diskOrder.Front(); el != nil; el = el.Next() {
		files = append(files, el.Value.(*entry).path)
	}
	c.entries = make(map[plan.Fingerprint]*entry)
	c.order = list.New()
	c.diskOrder = list.New()
	c.subindex = make(map[plan.SubsumptionKey]map[plan.Fingerprint]struct{})
	c.bytes = 0
	c.diskBytes = 0
	c.mu.Unlock()
	removeFiles(files)
}

// Get returns the frozen entry for a fingerprint at the current epoch.
// The returned materialization is the cache's own (frozen) storage:
// serve it to a client through exec.ServeCachedResult, which emits
// copy-on-write shares.
func (c *Cache) Get(fp plan.Fingerprint) (*exec.Materialized, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	mat, load, wait := c.lookupLocked(fp)
	for mat == nil && wait != nil {
		c.mu.Unlock()
		mat = c.await(load, wait)
		c.mu.Lock()
		if mat == nil {
			mat, load, wait = c.lookupLocked(fp)
		}
	}
	if mat != nil {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return mat, mat != nil
}

// lookupLocked probes the current-epoch entry for fp (see serveLocked);
// all three results are nil on a miss.
func (c *Cache) lookupLocked(fp plan.Fingerprint) (*exec.Materialized, *entry, <-chan struct{}) {
	e, ok := c.entries[fp]
	if !ok || e.epoch != c.epoch {
		return nil, nil, nil
	}
	return c.serveLocked(e)
}

// serveLocked returns e's frozen materialization when it is in memory,
// marking a resident entry most recently served. A spilled entry is
// marked loading and returned as load: the caller promotes it with c.mu
// released. An entry another probe is loading returns only wait, closed
// once that load is done. Either way the caller passes load and wait to
// await and then probes again.
func (c *Cache) serveLocked(e *entry) (mat *exec.Materialized, load *entry, wait <-chan struct{}) {
	switch {
	case e.mat != nil:
		if e.el != nil {
			c.order.MoveToFront(e.el)
		}
		return e.mat, nil, nil
	case e.loading != nil:
		return nil, nil, e.loading
	}
	c.unlinkLocked(e)
	e.loading = make(chan struct{})
	return nil, e, e.loading
}

// await sits out what serveLocked found, with c.mu released: it promotes
// load, returning the promoted materialization, or waits for the probe
// that is loading the entry and returns nil so the caller probes again.
func (c *Cache) await(load *entry, wait <-chan struct{}) *exec.Materialized {
	if load != nil {
		return c.promote(load)
	}
	<-wait
	return nil
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
	c.mu.Lock()
	c.subProbes++
	// A spilled candidate can lose its promotion (corrupt file) and drop
	// out; re-select until a candidate is served or none remain.
	for {
		best := c.subsumingLocked(fp, sub)
		if best == nil {
			c.mu.Unlock()
			return SubsumeHit{}, false
		}
		mat, load, wait := c.serveLocked(best)
		if mat == nil {
			c.mu.Unlock()
			mat = c.await(load, wait)
			c.mu.Lock()
		}
		if mat != nil {
			c.subHits++
			hit := SubsumeHit{Fp: best.fp, Mat: mat, Bytes: best.bytes}
			c.mu.Unlock()
			return hit, true
		}
	}
}

// subsumingLocked selects the smallest current-epoch entry, other than
// fp's own, whose intervals contain sub's.
func (c *Cache) subsumingLocked(fp plan.Fingerprint, sub *plan.SubsumptionInfo) *entry {
	var best *entry
	for cand := range c.subindex[sub.Key] {
		e, ok := c.entries[cand]
		if !ok || e.epoch != c.epoch || e.fp == fp || !plan.Subsumes(e.sub, sub) {
			continue
		}
		if best == nil || e.bytes < best.bytes {
			best = e
		}
	}
	return best
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
	if c == nil {
		return false
	}
	c.mu.Lock()
	stored, victims := c.admitLocked(fp, mat, startEpoch, sub)
	c.mu.Unlock()
	c.demote(victims)
	return stored
}

// admitLocked stores mat unless its execution straddled an epoch bump;
// callers hold the lock and pass the returned victims to demote once
// they have released it.
func (c *Cache) admitLocked(fp plan.Fingerprint, mat *exec.Materialized, startEpoch uint64, sub *plan.SubsumptionInfo) (bool, []*entry) {
	if mat == nil {
		return false, nil
	}
	if startEpoch != c.epoch {
		c.rejected++
		return false, nil
	}
	mat.Freeze()
	if e, ok := c.entries[fp]; ok {
		c.removeLocked(e)
	}
	e := &entry{fp: fp, mat: mat, bytes: matBytes(mat), epoch: c.epoch, sub: sub, schema: mat.Schema}
	c.entries[fp] = e
	e.el = c.order.PushFront(e)
	c.bytes += e.bytes
	c.indexLocked(e)
	c.stores++
	return true, c.evictLocked()
}

// indexLocked adds e to the semantic index when it carries a summary.
func (c *Cache) indexLocked(e *entry) {
	if e.sub == nil || e.sub.Key.IsZero() {
		return
	}
	bucket := c.subindex[e.sub.Key]
	if bucket == nil {
		bucket = make(map[plan.Fingerprint]struct{})
		c.subindex[e.sub.Key] = bucket
	}
	bucket[e.fp] = struct{}{}
}

// unlinkLocked takes e out of its tier's list and ledger, returning the
// spill file of a spilled entry. An entry between tiers is in neither.
func (c *Cache) unlinkLocked(e *entry) string {
	if e.el == nil {
		return ""
	}
	path := e.path
	if path == "" {
		c.order.Remove(e.el)
		c.bytes -= e.bytes
	} else {
		c.diskOrder.Remove(e.el)
		c.diskBytes -= e.bytes
	}
	e.el = nil
	return path
}

// removeLocked drops one entry. A spilled entry's file is deleted; the
// file of an entry between tiers belongs to the goroutine moving it.
func (c *Cache) removeLocked(e *entry) {
	if path := c.unlinkLocked(e); path != "" {
		os.Remove(path)
	}
	delete(c.entries, e.fp)
	if e.sub != nil {
		if bucket, ok := c.subindex[e.sub.Key]; ok {
			delete(bucket, e.fp)
			if len(bucket) == 0 {
				delete(c.subindex, e.sub.Key)
			}
		}
	}
}

// evictLocked enforces the byte budget, least recently served entry
// first; callers hold the lock. Like the ingestion cache, a single
// over-budget entry is allowed to remain alone. With the disk tier
// configured the victims leave the resident tier here and are returned
// for demote, which writes them to disk with the lock released.
func (c *Cache) evictLocked() []*entry {
	if c.cfg.MaxBytes <= 0 {
		return nil
	}
	var victims []*entry
	for c.bytes > c.cfg.MaxBytes && c.order.Len() > 1 {
		e := c.order.Back().Value.(*entry)
		if !c.spillEnabled() {
			c.removeLocked(e)
			c.evictions++
			continue
		}
		c.unlinkLocked(e)
		victims = append(victims, e)
	}
	return victims
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
	c.mu.Lock()
	mat, load, wait := c.lookupLocked(fp)
	for mat == nil && wait != nil {
		c.mu.Unlock()
		mat = c.await(load, wait)
		c.mu.Lock()
		if mat == nil {
			mat, load, wait = c.lookupLocked(fp)
		}
	}
	if mat != nil {
		c.hits++
		c.mu.Unlock()
		return mat, Outcome{Hit: true}, nil
	}
	if f, ok := c.flights[fp]; ok && f.epoch == c.epoch {
		// Riding is a hit, not a miss: the work is not repeated. Only a
		// current-epoch flight qualifies — a query arriving after an
		// invalidation has observed "the data changed" and must
		// re-execute, not ride a pre-change execution (whose result the
		// store side will likewise reject).
		c.riders++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, Outcome{Rider: true}, f.err
		}
		return f.mat, Outcome{Hit: true, Rider: true}, nil
	}
	c.misses++
	f := &flight{done: make(chan struct{}), epoch: c.epoch}
	// Overwrites any stale-epoch flight: its leader still publishes to
	// its own (pre-bump) riders and removes only its own table entry.
	c.flights[fp] = f
	startEpoch := c.epoch
	c.mu.Unlock()

	// publish runs exactly once — on the normal path below, or from the
	// deferred recovery if compute panics: the flight must leave the
	// table and its riders must wake (with an error) either way, or every
	// later identical query would block forever on a dead flight.
	published := false
	publish := func(mat *exec.Materialized, store bool, err error) bool {
		published = true
		c.mu.Lock()
		// Remove only our own flight: a stale-epoch flight may have been
		// superseded in the table by a post-invalidation one.
		if c.flights[fp] == f {
			delete(c.flights, fp)
		}
		stored := false
		var victims []*entry
		if err == nil {
			// Freeze before publishing: riders and the stored entry share
			// the leader's storage, and the first mutation through any
			// handle (including the leader's own) copies first.
			mat.Freeze()
			f.mat = mat
			if store {
				stored, victims = c.admitLocked(fp, mat, startEpoch, sub)
			}
		}
		f.err = err
		c.mu.Unlock()
		close(f.done)
		c.demote(victims)
		return stored
	}
	defer func() {
		if !published {
			publish(nil, false, errLeaderAborted)
		}
	}()

	mat, store, err := compute()
	stored := publish(mat, store, err)
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Riders: c.riders,
		Stores: c.stores, RejectedStores: c.rejected,
		Evictions: c.evictions, Invalidations: c.invalidated,
		SubsumptionProbes: c.subProbes, SubsumptionHits: c.subHits,
		SubsumptionBytesSaved: c.subBytesSaved, RefilterWall: c.refilterWall,
		Demotions: c.demotions, Promotions: c.promotions,
		DiskEvictions: c.diskEvictions, WarmedFromDisk: c.warmed,
		BytesResident: c.bytes, Entries: c.order.Len(),
		BytesOnDisk: c.diskBytes, DiskEntries: c.diskOrder.Len(),
		Epoch: c.epoch,
	}
}

// matBytes totals a materialization's resident size in the same unit the
// ingestion cache charges (vector.Batch.Bytes).
func matBytes(mat *exec.Materialized) int64 {
	var total int64
	for _, b := range mat.Batches {
		total += b.Bytes()
	}
	return total
}
