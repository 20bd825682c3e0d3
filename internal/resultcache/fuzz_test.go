package resultcache

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"

	"repro/internal/plan"
)

// largeAllocs counts the heap allocations of 32 KiB or more made so far
// (the top bucket of the runtime's allocation-size histogram).
func largeAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	metrics.Read(s)
	counts := s[0].Value.Float64Histogram().Counts
	return counts[len(counts)-1]
}

// seedSpill is the one valid result spill file every fuzzed manifest
// sits next to.
const seedSpill = "result-seed.spill"

// FuzzLoadManifest writes arbitrary bytes as manifest.json next to one
// valid spill file and a file outside the spill pattern, opens a cache
// over the directory, probes every fingerprint the bytes name and
// closes it. Nothing may panic, no file outside the result spill
// pattern may be removed, and a manifest under 4 KiB must never make an
// allocation of 32 KiB or more.
func FuzzLoadManifest(f *testing.F) {
	// Build the seed spill file and its manifest through the cache.
	src := f.TempDir()
	c := New(Config{SpillDir: src})
	c.PutAt(fp("seed"), mat(1, 2, 3), c.Epoch(), subInfo("bucket", 0, 100))
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	var m manifest
	data, err := os.ReadFile(filepath.Join(src, "manifest.json"))
	if err != nil || json.Unmarshal(data, &m) != nil || len(m.Entries) != 1 {
		f.Fatalf("seed manifest: %v %+v", err, m)
	}
	spill, err := os.ReadFile(filepath.Join(src, m.Entries[0].File))
	if err != nil {
		f.Fatal(err)
	}
	m.Entries[0].File = seedSpill
	add := func(m manifest) {
		data, err := json.Marshal(&m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	add(m)
	self := m.Entries[0]
	self.Fingerprint, self.File = fp("self").String(), "manifest.json"
	twin := m.Entries[0]
	twin.Fingerprint = fp("twin").String()
	add(manifest{Epoch: 3, Entries: []manifestEntry{m.Entries[0], self, twin}})
	f.Add([]byte("{not json"))

	dir := filepath.Join(f.TempDir(), "spill")
	f.Fuzz(func(t *testing.T, data []byte) {
		os.RemoveAll(dir)
		os.MkdirAll(dir, 0o755)
		keep := []string{"manifest.json", "notes.txt"}
		for name, b := range map[string][]byte{seedSpill: spill, keep[0]: data, keep[1]: nil} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		kept := func(when string) {
			for _, name := range keep {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					t.Fatalf("%s removed %s", when, name)
				}
			}
		}
		before := largeAllocs()
		c := New(Config{SpillDir: dir})
		var m manifest
		json.Unmarshal(data, &m)
		for _, me := range m.Entries {
			if b, err := hex.DecodeString(me.Fingerprint); err == nil && len(b) == len(plan.Fingerprint{}) {
				var key plan.Fingerprint
				copy(key[:], b)
				c.Get(key)
			}
		}
		kept("probing the warmed entries")
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		kept("Close")
		if len(data) < 4<<10 && largeAllocs() != before {
			t.Fatalf("a %d-byte manifest made an allocation of 32 KiB or more", len(data))
		}
	})
}
