// Disk tier of the result cache: instead of evicting a cold entry under
// byte pressure, the cache demotes it — the frozen materialization is
// serialized to a spill file (internal/storage batch spill format) and
// only the entry's metadata stays resident. A later hit promotes it back
// through the ordinary result-scan share path. The tier has its own byte
// budget and LRU (demotion recency), and persists across restarts: Close
// demotes everything still resident and writes a manifest
// (fingerprint, subsumption summary, invalidation epoch per entry), and
// New over the same spill directory warms the cache from it, so repeat
// queries after a restart are served with zero executions. Corrupt or
// truncated spill files and manifests are ignored, never fatal: a bad
// manifest means a cold start, a bad entry file means a miss.
//
// No spill file is read or written under c.mu. Demotion picks its
// victims under the lock, writes their files with it released, and then
// commits each victim still current — meanwhile hits are served from the
// victim's frozen batches. Promotion marks the entry loading under the
// lock, reads its file with the lock released, and commits; other probes
// of the entry wait for that one read instead of repeating it.

package resultcache

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// spillEnabled reports whether the disk tier is configured.
func (c *Cache) spillEnabled() bool { return c.cfg.SpillDir != "" }

// demote writes the victims evictLocked (or Close) took out of the
// resident tier to spill files, with c.mu released, then commits each one
// to the disk tier if it is still the same entry at the same epoch. A
// victim invalidated or replaced meanwhile has its file removed; one
// whose write failed is evicted, so a full or broken disk degrades to
// the spill-off behavior instead of erroring.
func (c *Cache) demote(victims []*entry) {
	if len(victims) == 0 {
		return
	}
	paths := make([]string, len(victims))
	for i, e := range victims {
		if path, err := c.writeSpill(e); err == nil {
			paths[i] = path
		}
	}
	c.mu.Lock()
	var stale []string
	for i, e := range victims {
		switch path := paths[i]; {
		case c.entries[e.fp] != e || e.epoch != c.epoch:
			stale = append(stale, path)
		case path == "":
			c.removeLocked(e)
			c.evictions++
		default:
			e.mat, e.path = nil, path
			e.el = c.diskOrder.PushFront(e)
			c.diskBytes += e.bytes
			c.demotions++
			c.evictDiskLocked()
		}
	}
	c.mu.Unlock()
	removeFiles(stale)
}

// writeSpill serializes a demotion victim's frozen batches to a new
// spill file and returns its path.
func (c *Cache) writeSpill(e *entry) (string, error) {
	sf, err := storage.CreateSpillFile(c.cfg.SpillDir, "result-*.spill")
	if err != nil {
		return "", err
	}
	kinds := make([]vector.Kind, len(e.schema))
	for i, ci := range e.schema {
		kinds[i] = ci.Kind
	}
	w := storage.NewBatchWriter(sf.File(), kinds, c.cfg.Disk, c.cfg.Clock)
	for _, b := range e.mat.Batches {
		if err := w.Append(b); err != nil {
			sf.Remove()
			return "", err
		}
	}
	if err := w.Finish(); err != nil {
		sf.Remove()
		return "", err
	}
	return sf.Adopt()
}

// promote reads the spill file of an entry serveLocked marked loading,
// with c.mu released, and commits the entry to the resident tier if it
// is still the same entry at the same epoch. It returns the promoted
// materialization, or nil when the entry went away meanwhile or its file
// was corrupt or missing — then the entry is dropped and the probe
// becomes a miss, never an error. Either way the file is removed and the
// entry's waiters are woken.
func (c *Cache) promote(e *entry) *exec.Materialized {
	path := e.path
	mat, err := c.readSpill(path, e.schema)
	c.mu.Lock()
	var victims []*entry
	switch {
	case c.entries[e.fp] != e || e.epoch != c.epoch:
		mat = nil
	case err != nil:
		c.removeLocked(e)
		mat = nil
	default:
		e.mat, e.path = mat, ""
		e.bytes = matBytes(mat)
		e.el = c.order.PushFront(e)
		c.bytes += e.bytes
		c.promotions++
		victims = c.evictLocked()
	}
	close(e.loading)
	e.loading = nil
	c.mu.Unlock()
	os.Remove(path)
	c.demote(victims)
	return mat
}

// readSpill loads a spill file back into a frozen materialization.
func (c *Cache) readSpill(path string, schema []plan.ColInfo) (*exec.Materialized, error) {
	r, err := storage.OpenBatchReader(path, c.cfg.Disk, c.cfg.Clock)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var batches []*vector.Batch
	for {
		b, err := r.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		batches = append(batches, b)
	}
	mat := &exec.Materialized{Schema: schema, Batches: batches}
	mat.Freeze()
	return mat, nil
}

// evictDiskLocked enforces the disk-tier byte budget, oldest demotion
// first. Like the resident tier, a single over-budget entry may remain
// alone.
func (c *Cache) evictDiskLocked() {
	if c.cfg.DiskMaxBytes <= 0 {
		return
	}
	for c.diskBytes > c.cfg.DiskMaxBytes && c.diskOrder.Len() > 1 {
		c.removeLocked(c.diskOrder.Back().Value.(*entry))
		c.diskEvictions++
	}
}

// removeFiles deletes spill files no entry references any more.
func removeFiles(paths []string) {
	for _, p := range paths {
		if p != "" {
			os.Remove(p)
		}
	}
}

// Close demotes every resident entry to the disk tier and writes the
// manifest, so a cache reopened over the same spill directory serves
// repeat queries without re-executing them. Without a spill directory it
// is a no-op. Close does not render the cache unusable, but it is meant
// as the last call before process exit.
func (c *Cache) Close() error {
	if c == nil || !c.spillEnabled() {
		return nil
	}
	// Demote LRU-first: each commit pushes to the disk tier's front, so
	// the resident recency order is preserved on top of what had already
	// been demoted.
	c.mu.Lock()
	var victims []*entry
	for el := c.order.Back(); el != nil; el = c.order.Back() {
		e := el.Value.(*entry)
		c.unlinkLocked(e)
		victims = append(victims, e)
	}
	c.mu.Unlock()
	c.demote(victims)
	c.mu.Lock()
	m := c.manifestLocked()
	c.mu.Unlock()
	return writeManifest(c.cfg.SpillDir, m)
}

// manifest is the on-disk index of the spill directory. Entries are
// ordered most recently used first.
type manifest struct {
	Epoch   uint64          `json:"epoch"`
	Entries []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	Fingerprint string        `json:"fingerprint"`
	File        string        `json:"file"`
	Bytes       int64         `json:"bytes"`
	Schema      []manifestCol `json:"schema"`
	Sub         *manifestSub  `json:"sub,omitempty"`
}

type manifestCol struct {
	Table string `json:"table,omitempty"`
	Name  string `json:"name"`
	Kind  int    `json:"kind"`
}

// manifestSub carries the subsumption summary minus the re-filter
// closure (not serializable). A warmed entry keeps answering semantic
// probes — Subsumes uses only the key and intervals, and the narrow
// query re-filters with its own expression.
type manifestSub struct {
	Key       string                   `json:"key"`
	Intervals map[string]plan.Interval `json:"intervals"`
}

// manifestLocked indexes the disk tier for the next process.
func (c *Cache) manifestLocked() manifest {
	m := manifest{Epoch: c.epoch}
	for el := c.diskOrder.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		me := manifestEntry{
			Fingerprint: e.fp.String(),
			File:        filepath.Base(e.path),
			Bytes:       e.bytes,
		}
		for _, ci := range e.schema {
			me.Schema = append(me.Schema, manifestCol{Table: ci.Table, Name: ci.Name, Kind: int(ci.Kind)})
		}
		if e.sub != nil && !e.sub.Key.IsZero() {
			ms := &manifestSub{Key: e.sub.Key.String(), Intervals: e.sub.Intervals}
			// Interval bounds hold vector.Values; a non-finite double
			// cannot be marshaled — drop the summary, keep the entry.
			if _, err := json.Marshal(ms); err == nil {
				me.Sub = ms
			}
		}
		m.Entries = append(m.Entries, me)
	}
	return m
}

// writeManifest replaces dir's manifest atomically (write, then rename).
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "manifest.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "manifest.json"))
}

// loadManifest warms the disk tier from a previous process's manifest.
// Every failure mode — missing or corrupt manifest, missing files, bad
// fingerprints or schemas — skips quietly: the worst restart outcome is
// a cold cache. Spill files the manifest does not reference are removed.
func (c *Cache) loadManifest() {
	data, err := os.ReadFile(filepath.Join(c.cfg.SpillDir, "manifest.json"))
	if err != nil {
		c.sweepSpillDir(nil)
		return
	}
	var m manifest
	if json.Unmarshal(data, &m) != nil {
		c.sweepSpillDir(nil)
		return
	}
	c.epoch = m.Epoch
	referenced := make(map[string]bool)
	for _, me := range m.Entries {
		fpB, err := hex.DecodeString(me.Fingerprint)
		if err != nil || len(fpB) != len(plan.Fingerprint{}) || me.Bytes < 0 {
			continue
		}
		var f plan.Fingerprint
		copy(f[:], fpB)
		if _, dup := c.entries[f]; dup {
			continue
		}
		path := filepath.Join(c.cfg.SpillDir, filepath.Base(me.File))
		if fi, err := os.Stat(path); err != nil || fi.IsDir() {
			continue
		}
		schema := make([]plan.ColInfo, 0, len(me.Schema))
		ok := true
		for _, mc := range me.Schema {
			k := vector.Kind(mc.Kind)
			if k <= vector.KindInvalid || k > vector.KindTime {
				ok = false
				break
			}
			schema = append(schema, plan.ColInfo{Table: mc.Table, Name: mc.Name, Kind: k})
		}
		if !ok {
			continue
		}
		e := &entry{fp: f, bytes: me.Bytes, epoch: c.epoch, path: path, schema: schema}
		if me.Sub != nil {
			if kb, err := hex.DecodeString(me.Sub.Key); err == nil && len(kb) == len(plan.SubsumptionKey{}) {
				var key plan.SubsumptionKey
				copy(key[:], kb)
				e.sub = &plan.SubsumptionInfo{Key: key, Intervals: me.Sub.Intervals}
			}
		}
		c.entries[f] = e
		e.el = c.diskOrder.PushBack(e) // manifest order is MRU-first
		c.diskBytes += e.bytes
		c.indexLocked(e)
		referenced[filepath.Base(path)] = true
		c.warmed++
	}
	c.sweepSpillDir(referenced)
	c.evictDiskLocked()
}

// sweepSpillDir removes result spill files not referenced by the loaded
// manifest (leftovers of a crash between demotion and manifest write).
// Only files matching this package's naming pattern are touched.
func (c *Cache) sweepSpillDir(keep map[string]bool) {
	ents, err := os.ReadDir(c.cfg.SpillDir)
	if err != nil {
		return
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || keep[name] {
			continue
		}
		if ok, _ := filepath.Match("result-*.spill", name); ok {
			os.Remove(filepath.Join(c.cfg.SpillDir, name))
		}
	}
}
