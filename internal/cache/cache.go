// Package cache implements the ingestion cache for data mounted by ALi:
// "data of the mounted files might be cached depending on the cache
// policy" (paper §3). Two granularities are supported, mirroring the
// paper's open question:
//
//   - File granularity: the whole mounted file is cached; any later query
//     touching the file is served from memory.
//   - Tuple granularity: only the tuples that satisfied the mounting
//     query's selection are cached, together with the span they cover;
//     a later query is served from cache only if its span is contained —
//     otherwise the whole file must be mounted again (exactly the
//     trade-off the paper describes).
//
// Policies control retention: NeverCache reproduces the paper's
// preliminary setup ("ingested data is discarded as soon as the query
// has been evaluated"), LRU retains within a memory bound. Entries live
// in an internal/store keyed by URI, which owns the byte-budget LRU and
// the fill generations that keep a Drop or Clear from being undone by a
// fill that began before it.
package cache

import (
	"sync/atomic"

	"repro/internal/store"
	"repro/internal/vector"
)

// Policy selects the retention strategy.
type Policy int

// Retention policies.
const (
	// NeverCache discards mounted data after every query (the paper's
	// preliminary evaluation setting: inherently up-to-date data).
	NeverCache Policy = iota
	// LRU keeps the most recently used entries within the byte budget.
	LRU
)

func (p Policy) String() string {
	return [...]string{"never", "lru"}[p]
}

// Granularity selects what is stored per entry.
type Granularity int

// Cache granularities (paper §3, run-time optimization discussion).
const (
	FileGranular Granularity = iota
	TupleGranular
)

func (g Granularity) String() string {
	if g == FileGranular {
		return "file"
	}
	return "tuple"
}

// Span is the closed interval of the data-span column covered by an
// entry or required by a query. Full means "the whole file".
type Span struct {
	Lo, Hi int64
	Full   bool
}

// FullSpan covers everything.
func FullSpan() Span { return Span{Full: true} }

// Contains reports whether s covers need.
func (s Span) Contains(need Span) bool {
	if s.Full {
		return true
	}
	if need.Full {
		return false
	}
	return s.Lo <= need.Lo && need.Hi <= s.Hi
}

// Config parameterizes a Manager.
type Config struct {
	Policy      Policy
	Granularity Granularity
	// MaxBytes bounds resident cache size; <=0 means unlimited (only
	// meaningful with LRU).
	MaxBytes int64
}

// Stats reports cache activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	BytesResident int64
	Entries       int
}

// Manager is the ingestion cache. It is safe for concurrent use.
type Manager struct {
	cfg          Config
	store        *store.Store[string, Span]
	hits, misses atomic.Int64
	// onInvalidate runs after Drop or Clear: both mean "the underlying
	// data may have changed", the signal layers above — the engine's
	// result cache — use to bump their invalidation epoch.
	onInvalidate atomic.Pointer[func()]
}

// New returns a manager with the given configuration.
func New(cfg Config) *Manager {
	return &Manager{cfg: cfg, store: store.New[string, Span](store.Config{MaxBytes: cfg.MaxBytes})}
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// SetOnInvalidate registers fn to run after every Drop or Clear — the
// two operations that signal the underlying data changed (an eviction by
// byte budget does not: the repository files are still what they were).
// fn is invoked outside any lock and must be safe for concurrent use.
func (m *Manager) SetOnInvalidate(fn func()) {
	if m != nil {
		m.onInvalidate.Store(&fn)
	}
}

// Contains reports whether a query needing the given span of uri can be
// served from cache. This drives rewrite rule (1)'s f ∈ C test.
func (m *Manager) Contains(uri string, need Span) bool {
	if m == nil || m.cfg.Policy == NeverCache {
		return false
	}
	span, _, ok := m.store.Meta(uri)
	return ok && span.Contains(need)
}

// Get returns copy-on-write shares of the cached batches for uri if the
// entry covers the needed span. Sharing is O(1) per batch: consumers
// read the entry's storage directly and may mutate their shares freely —
// the first write materializes a private copy, so the entry can never be
// corrupted.
func (m *Manager) Get(uri string, need Span) ([]*vector.Batch, bool) {
	if m == nil || m.cfg.Policy == NeverCache {
		return nil, false
	}
	batches, span, ok := m.store.Resident(uri) // no disk tier: every entry is resident
	if !ok || !span.Contains(need) {
		m.misses.Add(1)
		return nil, false
	}
	m.hits.Add(1)
	out := make([]*vector.Batch, len(batches))
	for i, b := range batches {
		out[i] = b.Share()
	}
	return out, true
}

// Gen returns the ticket a fill takes before it starts extracting and
// later passes to Put: a Drop of the fill's URI or a Clear in between
// voids the fill.
func (m *Manager) Gen() uint64 {
	if m == nil {
		return 0
	}
	return m.store.Gen()
}

// Put stores mounted data: the batch list of one file, taken by a fill
// that began at ticket since (see Gen). With FileGranular configuration
// the span is forced to Full (callers pass the whole mounted file, and a
// file that yielded no batches stores nothing); TupleGranular callers
// pass the filtered batches and the span their tuples cover — an empty
// list records that no tuple of the span qualifies. The entry adopts the
// batch handles and freezes them: callers pass handles of their own
// (shares). A NeverCache manager ignores Put, as does the store for a
// fill a Drop or Clear voided.
func (m *Manager) Put(uri string, batches []*vector.Batch, span Span, since uint64) {
	if m == nil || m.cfg.Policy == NeverCache {
		return
	}
	if m.cfg.Granularity == FileGranular {
		if len(batches) == 0 {
			return
		}
		span = FullSpan()
	}
	m.store.Put(uri, span, batches, since)
}

// Drop removes one entry (e.g. when the underlying file changed) and
// voids every fill of the URI in progress, so dropped data cannot be
// resurrected.
func (m *Manager) Drop(uri string) {
	if m == nil {
		return
	}
	m.store.Remove(uri)
	// Drop means "this file changed" whether or not it was resident:
	// layers above must hear about it either way.
	m.invalidated()
}

// Clear empties the cache and voids every fill in progress: a flight
// racing the clear must not repopulate it.
func (m *Manager) Clear() {
	if m == nil {
		return
	}
	m.store.Clear()
	m.invalidated()
}

// invalidated runs the invalidation hook.
func (m *Manager) invalidated() {
	if fn := m.onInvalidate.Load(); fn != nil && *fn != nil {
		(*fn)()
	}
}

// Stats returns a snapshot of cache counters.
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	ss := m.store.Stats()
	return Stats{
		Hits: m.hits.Load(), Misses: m.misses.Load(), Evictions: ss.Evictions,
		BytesResident: ss.BytesResident, Entries: ss.Entries,
	}
}
