// Package store is the one budgeted store of frozen batch lists under
// the engine's caches. The ingestion cache (internal/cache) and the
// result cache (internal/resultcache) are keyings over it: each picks a
// key type and the metadata it keeps per entry, and the store owns what
// they share:
//
//   - Entries are lists of frozen vector batches, accounted with
//     vector.Batch.Bytes on one resident byte ledger in LRU order (front
//     = most recently served). Under pressure the least recently served
//     entry goes first; a single over-budget entry may stay on its own.
//   - An optional disk tier with its own budget and LRU (demotion
//     recency): with a spill directory configured, an entry evicted from
//     memory is demoted to a spill file (internal/storage batch spill
//     format) instead of dropped, and a later Get promotes it back.
//   - Fill generations: Gen returns a ticket a fill takes before it
//     starts producing batches, and Put rejects a fill whose ticket
//     predates a Clear, or a Remove of its key — data derived from
//     before an invalidation is never stored after it.
//
// No spill file is read or written under the store's mutex (see demote
// and promote). Corrupt or missing spill files are never fatal: the
// entry is dropped and the probe misses.
package store

import (
	"container/list"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/storage"
	"repro/internal/vector"
)

// Config parameterizes a Store.
type Config struct {
	// MaxBytes bounds the resident tier; <= 0 means unlimited.
	MaxBytes int64
	// SpillDir enables the disk tier: entries evicted from memory are
	// demoted to spill files here, named by SpillPattern (as in
	// os.CreateTemp). Empty disables the tier.
	SpillDir     string
	SpillPattern string
	// DiskMaxBytes bounds the disk tier; <= 0 means unlimited.
	DiskMaxBytes int64
	// Disk and Clock charge demotion writes and promotion reads to the
	// engine's modeled I/O accounting. The zero-value Disk charges
	// nothing.
	Disk  storage.DiskModel
	Clock *storage.Clock
}

// Stats is a snapshot of the store's tier moves and occupancy.
type Stats struct {
	// Evictions counts entries dropped by the resident budget (with no
	// disk tier, or when a demotion write failed); Demotions and
	// Promotions count moves between the tiers; DiskEvictions counts
	// entries dropped by the disk tier's own budget.
	Evictions, Demotions, Promotions, DiskEvictions int64
	// BytesResident / Entries describe the resident tier, BytesOnDisk /
	// DiskEntries the disk tier.
	BytesResident int64
	Entries       int
	BytesOnDisk   int64
	DiskEntries   int
}

// Store holds keyed entries of frozen batch lists with metadata M. It
// is safe for concurrent use.
type Store[K comparable, M any] struct {
	cfg Config

	mu      sync.Mutex
	entries map[K]*entry[K, M]

	// The two tiers' ledgers. A resident entry sits in order and counts
	// against bytes; a spilled entry sits in diskOrder and counts against
	// diskBytes. An entry moving between tiers sits in neither list and
	// counts against neither ledger.
	order     *list.List
	bytes     int64
	diskOrder *list.List
	diskBytes int64

	// gen advances with every Clear and Remove; cleared is its value at
	// the last Clear and removed[k] at the last Remove of k since then.
	gen     uint64
	cleared uint64
	removed map[K]uint64

	evictions, demotions, promotions, diskEvictions int64
}

// entry is one stored batch list. Its tier state:
//
//   - resident: path empty, el in order;
//   - demoting: path empty, el nil — its spill file is being written,
//     and hits are still served from batches;
//   - spilled: batches nil, el in diskOrder, path names the spill file;
//   - loading: batches nil, el nil, path set, loading open — one probe
//     is reading the spill file and the others wait on loading.
type entry[K comparable, M any] struct {
	key     K
	meta    M
	batches []*vector.Batch
	bytes   int64
	el      *list.Element
	path    string
	loading chan struct{}
}

// New returns an empty store. With a spill directory configured the
// directory is created; Restore adopts what a previous process left.
func New[K comparable, M any](cfg Config) *Store[K, M] {
	s := &Store[K, M]{cfg: cfg}
	s.reset()
	if s.spillEnabled() {
		os.MkdirAll(cfg.SpillDir, 0o755)
	}
	return s
}

// spillEnabled reports whether the disk tier is configured.
func (s *Store[K, M]) spillEnabled() bool { return s.cfg.SpillDir != "" }

// Gen returns the store's current generation: the ticket a fill takes
// before it starts and later passes to Put.
func (s *Store[K, M]) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Put stores batches under key with its metadata, replacing any entry
// the key had, unless the fill began (took its ticket since) before a
// Clear or a Remove of key. The store adopts the batch handles and
// freezes their storage: callers hand over handles nobody writes
// through again (shares taken for the purpose), and a later write
// through any other handle of the same storage copies first. It reports
// whether the entry was stored.
func (s *Store[K, M]) Put(key K, meta M, batches []*vector.Batch, since uint64) bool {
	var bytes int64
	for _, b := range batches {
		b.Freeze()
		bytes += b.Bytes()
	}
	s.mu.Lock()
	if since < s.cleared || since < s.removed[key] || since > s.gen {
		s.mu.Unlock()
		return false
	}
	if e, ok := s.entries[key]; ok {
		s.removeLocked(e)
	}
	e := &entry[K, M]{key: key, meta: meta, batches: batches, bytes: bytes}
	s.entries[key] = e
	e.el = s.order.PushFront(e)
	s.bytes += bytes
	victims := s.evictLocked()
	s.mu.Unlock()
	s.demote(victims)
	return true
}

// Get returns key's batches and metadata, marking the entry most
// recently served. The batches are the store's own frozen handles:
// callers read them, or hand out Share or Slice handles — never write
// through them. A spilled entry is promoted first, with the lock
// released; concurrent Gets of it wait for that one read.
func (s *Store[K, M]) Get(key K) ([]*vector.Batch, M, bool) {
	s.mu.Lock()
	for {
		e, ok := s.entries[key]
		switch {
		case !ok || e.path == "":
			batches, meta, ok := s.residentLocked(key)
			s.mu.Unlock()
			return batches, meta, ok
		case e.loading != nil:
			wait := e.loading
			s.mu.Unlock()
			<-wait
		default:
			s.unlinkLocked(e)
			e.loading = make(chan struct{})
			s.mu.Unlock()
			if batches, ok := s.promote(e); ok {
				return batches, e.meta, true
			}
		}
		// The entry moved or went away meanwhile: probe again.
		s.mu.Lock()
	}
}

// Resident is Get for an entry in memory: it never promotes a spilled
// entry nor waits for one being promoted, and so never blocks.
func (s *Store[K, M]) Resident(key K) ([]*vector.Batch, M, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.residentLocked(key)
}

// residentLocked serves key's entry if it is in memory.
func (s *Store[K, M]) residentLocked(key K) ([]*vector.Batch, M, bool) {
	e, ok := s.entries[key]
	if !ok || e.path != "" {
		var zero M
		return nil, zero, false
	}
	if e.el != nil {
		s.order.MoveToFront(e.el)
	}
	return e.batches, e.meta, true
}

// Meta returns key's metadata and accounted bytes, in either tier,
// without serving the entry.
func (s *Store[K, M]) Meta(key K) (M, int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		var zero M
		return zero, 0, false
	}
	return e.meta, e.bytes, true
}

// Remove drops key's entry and voids every fill of key begun before.
func (s *Store[K, M]) Remove(key K) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.removed[key] = s.gen
	if e, ok := s.entries[key]; ok {
		s.removeLocked(e)
	}
}

// Clear drops every entry, the disk tier's included, and voids every
// fill begun before; it returns how many entries it dropped. Files of
// entries between tiers belong to the goroutine moving them, which
// removes them when its commit finds the entry gone.
func (s *Store[K, M]) Clear() int {
	s.mu.Lock()
	s.gen++
	s.cleared = s.gen
	n := len(s.entries)
	var files []string
	for el := s.diskOrder.Front(); el != nil; el = el.Next() {
		files = append(files, el.Value.(*entry[K, M]).path)
	}
	s.reset()
	s.mu.Unlock()
	removeFiles(files)
	return n
}

// reset empties both tiers and forgets removals; callers hold the lock
// or own the store.
func (s *Store[K, M]) reset() {
	s.entries, s.removed = make(map[K]*entry[K, M]), make(map[K]uint64)
	s.order, s.diskOrder = list.New(), list.New()
	s.bytes, s.diskBytes = 0, 0
}

// Stats returns a snapshot of the counters and ledgers.
func (s *Store[K, M]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Evictions: s.evictions, Demotions: s.demotions,
		Promotions: s.promotions, DiskEvictions: s.diskEvictions,
		BytesResident: s.bytes, Entries: s.order.Len(),
		BytesOnDisk: s.diskBytes, DiskEntries: s.diskOrder.Len(),
	}
}

// unlinkLocked takes e out of its tier's list and ledger, returning the
// spill file of a spilled entry. An entry between tiers is in neither.
func (s *Store[K, M]) unlinkLocked(e *entry[K, M]) string {
	if e.el == nil {
		return ""
	}
	path := e.path
	if path == "" {
		s.order.Remove(e.el)
		s.bytes -= e.bytes
	} else {
		s.diskOrder.Remove(e.el)
		s.diskBytes -= e.bytes
	}
	e.el = nil
	return path
}

// removeLocked drops one entry. A spilled entry's file is deleted; the
// file of an entry between tiers belongs to the goroutine moving it.
func (s *Store[K, M]) removeLocked(e *entry[K, M]) {
	if path := s.unlinkLocked(e); path != "" {
		os.Remove(path)
	}
	delete(s.entries, e.key)
}

// evictLocked enforces the resident budget, least recently served entry
// first. With the disk tier configured the victims leave the resident
// tier here and are returned for demote, which writes them to disk with
// the lock released.
func (s *Store[K, M]) evictLocked() []*entry[K, M] {
	if s.cfg.MaxBytes <= 0 {
		return nil
	}
	var victims []*entry[K, M]
	for s.bytes > s.cfg.MaxBytes && s.order.Len() > 1 {
		e := s.order.Back().Value.(*entry[K, M])
		if !s.spillEnabled() {
			s.removeLocked(e)
			s.evictions++
			continue
		}
		s.unlinkLocked(e)
		victims = append(victims, e)
	}
	return victims
}

// evictDiskLocked enforces the disk-tier budget, oldest demotion first.
// Like the resident tier, a single over-budget entry may remain alone.
func (s *Store[K, M]) evictDiskLocked() {
	if s.cfg.DiskMaxBytes <= 0 {
		return
	}
	for s.diskBytes > s.cfg.DiskMaxBytes && s.diskOrder.Len() > 1 {
		s.removeLocked(s.diskOrder.Back().Value.(*entry[K, M]))
		s.diskEvictions++
	}
}

// demote writes the victims evictLocked (or Close) took out of the
// resident tier to spill files, with the lock released (hits meanwhile
// are served from the victims' frozen batches), then commits each one
// to the disk tier if it is still the key's entry. A victim
// removed or replaced meanwhile has its file removed; one whose write
// failed is evicted, so a full or broken disk degrades to the spill-off
// behavior instead of erroring.
func (s *Store[K, M]) demote(victims []*entry[K, M]) {
	if len(victims) == 0 {
		return
	}
	paths := make([]string, len(victims))
	for i, e := range victims {
		if path, err := storage.WriteSpill(s.cfg.SpillDir, s.cfg.SpillPattern, e.batches, s.cfg.Disk, s.cfg.Clock); err == nil {
			paths[i] = path
		}
	}
	s.mu.Lock()
	var stale []string
	for i, e := range victims {
		switch path := paths[i]; {
		case s.entries[e.key] != e:
			stale = append(stale, path)
		case path == "":
			s.removeLocked(e)
			s.evictions++
		default:
			e.batches, e.path = nil, path
			e.el = s.diskOrder.PushFront(e)
			s.diskBytes += e.bytes
			s.demotions++
			s.evictDiskLocked()
		}
	}
	s.mu.Unlock()
	removeFiles(stale)
}

// promote reads the spill file of an entry Get marked loading, with the
// lock released, and commits the entry to the resident tier if it is
// still the key's entry. It returns the promoted batches, or false when
// the entry went away meanwhile or its file was corrupt or missing —
// then the entry is dropped. Either way the file is removed and the
// entry's waiters are woken.
func (s *Store[K, M]) promote(e *entry[K, M]) ([]*vector.Batch, bool) {
	path := e.path
	batches, err := storage.ReadSpill(path, s.cfg.Disk, s.cfg.Clock)
	s.mu.Lock()
	var victims []*entry[K, M]
	ok := false
	switch {
	case s.entries[e.key] != e:
	case err != nil:
		s.removeLocked(e)
	default:
		e.bytes = 0
		for _, b := range batches {
			b.Freeze()
			e.bytes += b.Bytes()
		}
		e.batches, e.path = batches, ""
		e.el = s.order.PushFront(e)
		s.bytes += e.bytes
		s.promotions++
		victims = s.evictLocked()
		ok = true
	}
	close(e.loading)
	e.loading = nil
	s.mu.Unlock()
	os.Remove(path)
	s.demote(victims)
	return batches, ok
}

// removeFiles deletes spill files no entry references any more.
func removeFiles(paths []string) {
	for _, p := range paths {
		if p != "" {
			os.Remove(p)
		}
	}
}

// Close demotes every resident entry to the disk tier, least recently
// served first, so Files lists the whole store in recency order. Without
// a disk tier it does nothing.
func (s *Store[K, M]) Close() {
	if !s.spillEnabled() {
		return
	}
	s.mu.Lock()
	var victims []*entry[K, M]
	for el := s.order.Back(); el != nil; el = s.order.Back() {
		e := el.Value.(*entry[K, M])
		s.unlinkLocked(e)
		victims = append(victims, e)
	}
	s.mu.Unlock()
	s.demote(victims)
}

// File is one disk-tier entry as a keying persists it across restarts:
// its key and metadata, the spill file's base name inside the spill
// directory, and its accounted bytes.
type File[K comparable, M any] struct {
	Key   K
	Meta  M
	Name  string
	Bytes int64
}

// Files lists the disk tier, most recently demoted first.
func (s *Store[K, M]) Files() []File[K, M] {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []File[K, M]
	for el := s.diskOrder.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, M])
		out = append(out, File[K, M]{Key: e.key, Meta: e.meta, Name: filepath.Base(e.path), Bytes: e.bytes})
	}
	return out
}

// Restore starts the store at generation gen over the disk tier a
// previous process left, as listed most recently demoted first. A file
// joins the disk tier only if it is a regular file of the store's spill
// pattern in the spill directory, and neither it nor its key was
// adopted already; the pattern's files no entry adopted are removed. It
// returns the adopted files.
func (s *Store[K, M]) Restore(gen uint64, files []File[K, M]) []File[K, M] {
	ents, err := os.ReadDir(s.cfg.SpillDir)
	if err != nil {
		return nil
	}
	stray := make(map[string]bool)
	for _, de := range ents {
		if ok, _ := filepath.Match(s.cfg.SpillPattern, de.Name()); ok && de.Type().IsRegular() {
			stray[de.Name()] = true
		}
	}
	var adopted []File[K, M]
	s.mu.Lock()
	s.gen, s.cleared = gen, gen
	for _, f := range files {
		if _, dup := s.entries[f.Key]; dup || !stray[f.Name] || f.Bytes < 0 {
			continue
		}
		delete(stray, f.Name)
		e := &entry[K, M]{key: f.Key, meta: f.Meta, bytes: f.Bytes, path: filepath.Join(s.cfg.SpillDir, f.Name)}
		s.entries[f.Key] = e
		e.el = s.diskOrder.PushBack(e)
		s.diskBytes += e.bytes
		adopted = append(adopted, f)
	}
	s.evictDiskLocked()
	s.mu.Unlock()
	for name := range stray {
		os.Remove(filepath.Join(s.cfg.SpillDir, name))
	}
	return adopted
}
