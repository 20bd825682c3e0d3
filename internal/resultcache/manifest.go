// Disk tier and restart persistence of the result cache. The store's
// disk tier holds cold entries as spill files instead of evicting them
// (see internal/store); the result cache adds a manifest, so the tier
// persists across restarts: Close demotes everything still resident and
// writes the manifest (fingerprint, schema, subsumption summary per
// entry, and the invalidation epoch), and New over the same spill
// directory warms the cache from it, so repeat queries after a restart
// are served with zero executions. Corrupt or truncated spill files and
// manifests are ignored, never fatal: a bad manifest means a cold start,
// a bad entry file means a miss.

package resultcache

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/vector"
)

// spillPattern names the result cache's spill files; the manifest may
// only ever adopt files of this pattern.
const spillPattern = "result-*.spill"

// Close demotes every resident entry to the disk tier and writes the
// manifest, so a cache reopened over the same spill directory serves
// repeat queries without re-executing them. Without a spill directory it
// is a no-op. Close does not render the cache unusable, but it is meant
// as the last call before process exit.
func (c *Cache) Close() error {
	if c == nil || c.cfg.SpillDir == "" {
		return nil
	}
	c.store.Close()
	m := manifest{Epoch: c.store.Gen()}
	for _, f := range c.store.Files() {
		me := manifestEntry{Fingerprint: f.Key.String(), File: f.Name, Bytes: f.Bytes}
		for _, ci := range f.Meta.schema {
			me.Schema = append(me.Schema, manifestCol{Table: ci.Table, Name: ci.Name, Kind: int(ci.Kind)})
		}
		if sub := f.Meta.sub; sub != nil && !sub.Key.IsZero() {
			ms := &manifestSub{Key: sub.Key.String(), Intervals: sub.Intervals}
			// Interval bounds hold vector.Values; a non-finite double
			// cannot be marshaled — drop the summary, keep the entry.
			if _, err := json.Marshal(ms); err == nil {
				me.Sub = ms
			}
		}
		m.Entries = append(m.Entries, me)
	}
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
// a cold cache. The store adopts only files of the result spill pattern,
// each at most once, and removes the pattern's files nothing adopted.
func (c *Cache) loadManifest() {
	var m manifest
	if data, err := os.ReadFile(filepath.Join(c.cfg.SpillDir, "manifest.json")); err != nil || json.Unmarshal(data, &m) != nil {
		m = manifest{}
	}
	var files []store.File[plan.Fingerprint, info]
	for _, me := range m.Entries {
		fpB, err := hex.DecodeString(me.Fingerprint)
		if err != nil || len(fpB) != len(plan.Fingerprint{}) {
			continue
		}
		f := store.File[plan.Fingerprint, info]{Name: me.File, Bytes: me.Bytes}
		copy(f.Key[:], fpB)
		ok := true
		for _, mc := range me.Schema {
			k := vector.Kind(mc.Kind)
			if k <= vector.KindInvalid || k > vector.KindTime {
				ok = false
				break
			}
			f.Meta.schema = append(f.Meta.schema, plan.ColInfo{Table: mc.Table, Name: mc.Name, Kind: k})
		}
		if !ok {
			continue
		}
		if me.Sub != nil {
			if kb, err := hex.DecodeString(me.Sub.Key); err == nil && len(kb) == len(plan.SubsumptionKey{}) {
				var key plan.SubsumptionKey
				copy(key[:], kb)
				f.Meta.sub = &plan.SubsumptionInfo{Key: key, Intervals: me.Sub.Intervals}
			}
		}
		files = append(files, f)
	}
	adopted := c.store.Restore(m.Epoch, files)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range adopted {
		c.indexLocked(f.Key, f.Meta.sub)
	}
	c.warmed = int64(len(adopted))
}
