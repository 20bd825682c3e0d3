package resultcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/vector"
)

func countSpillFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range ents {
		if ok, _ := filepath.Match("result-*.spill", de.Name()); ok {
			n++
		}
	}
	return n
}

// TestDemoteInsteadOfEvict: with a spill directory configured, byte
// pressure demotes the LRU entry to disk instead of dropping it, and a
// later probe for it promotes it back — serving the original rows with
// zero re-executions.
func TestDemoteInsteadOfEvict(t *testing.T) {
	dir := t.TempDir()
	per := matBytes(mat(1, 2, 3))
	c := New(Config{MaxBytes: per, SpillDir: dir})
	if !put(c, fp("old"), mat(1, 2, 3)) {
		t.Fatal("first store rejected")
	}
	if !put(c, fp("new"), mat(4, 5, 6)) {
		t.Fatal("second store rejected")
	}
	st := c.Stats()
	if st.Demotions != 1 || st.Evictions != 0 {
		t.Fatalf("stats after pressure = %+v, want one demotion and no evictions", st)
	}
	if st.Entries != 1 || st.DiskEntries != 1 || st.BytesOnDisk != per {
		t.Fatalf("occupancy = %+v", st)
	}
	if countSpillFiles(t, dir) != 1 {
		t.Fatal("demotion left no spill file")
	}

	got, ok := c.Get(fp("old"))
	if !ok || got.Rows() != 3 {
		t.Fatalf("demoted entry not served: %v %v", got, ok)
	}
	if got.Batches[0].Cols[0].Int64s()[0] != 1 {
		t.Fatal("promoted entry has wrong content")
	}
	st = c.Stats()
	if st.Promotions != 1 {
		t.Fatalf("stats after promotion = %+v", st)
	}
	// Promotion re-applied byte pressure: "new" was demoted in turn, and
	// the promoted file is gone.
	if st.Entries != 1 || st.DiskEntries != 1 {
		t.Fatalf("occupancy after promotion = %+v", st)
	}
	if countSpillFiles(t, dir) != 1 {
		t.Fatal("promoted entry's spill file was not removed")
	}
}

// TestDiskTierHasItsOwnLRU: the disk tier's byte budget drops the
// oldest demotion for real (counted as DiskEvictions), and like the
// resident tier a single over-budget entry may remain alone.
func TestDiskTierHasItsOwnLRU(t *testing.T) {
	dir := t.TempDir()
	per := matBytes(mat(1, 2, 3))
	c := New(Config{MaxBytes: per, SpillDir: dir, DiskMaxBytes: per})
	put(c, fp("a"), mat(1, 2, 3))
	put(c, fp("b"), mat(4, 5, 6)) // demotes a
	put(c, fp("c"), mat(7, 8, 9)) // demotes b, disk-evicts a
	st := c.Stats()
	if st.Demotions != 2 || st.DiskEvictions != 1 || st.DiskEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := c.Get(fp("a")); ok {
		t.Fatal("disk-evicted entry still served")
	}
	if got, ok := c.Get(fp("b")); !ok || got.Rows() != 3 {
		t.Fatal("surviving spilled entry lost")
	}
	if countSpillFiles(t, dir) > 1 {
		t.Fatal("disk eviction leaked a spill file")
	}
}

// TestBumpEpochClearsDiskTier: invalidation drops spilled entries and
// their files — pre-change results must not warm a later process.
func TestBumpEpochClearsDiskTier(t *testing.T) {
	dir := t.TempDir()
	per := matBytes(mat(1, 2, 3))
	c := New(Config{MaxBytes: per, SpillDir: dir})
	put(c, fp("a"), mat(1, 2, 3))
	put(c, fp("b"), mat(4, 5, 6))
	c.BumpEpoch()
	st := c.Stats()
	if st.Entries != 0 || st.DiskEntries != 0 || st.BytesOnDisk != 0 {
		t.Fatalf("occupancy after bump = %+v", st)
	}
	if st.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2", st.Invalidations)
	}
	if countSpillFiles(t, dir) != 0 {
		t.Fatal("epoch bump left spill files behind")
	}
}

// TestCloseReopenWarmsCache is the restart contract: Close persists
// every entry plus the manifest; a new cache over the same directory
// serves the same fingerprints — including semantic subsumption probes
// — without any execution, at the preserved epoch.
func TestCloseReopenWarmsCache(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{SpillDir: dir})
	c.BumpEpoch() // a non-zero epoch must survive the restart
	sub := subInfo("bucket", 0, 100)
	if !c.PutAt(fp("plain"), mat(1, 2, 3), c.Epoch(), nil) {
		t.Fatal("store rejected")
	}
	if !c.PutAt(fp("wide"), mat(4, 5, 6, 7), c.Epoch(), sub) {
		t.Fatal("indexed store rejected")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2 := New(Config{SpillDir: dir})
	st := c2.Stats()
	if st.WarmedFromDisk != 2 || st.DiskEntries != 2 || st.Epoch != 1 {
		t.Fatalf("reopened stats = %+v", st)
	}
	got, ok := c2.Get(fp("plain"))
	if !ok || got.Rows() != 3 || got.Batches[0].Cols[0].Int64s()[2] != 3 {
		t.Fatalf("warmed entry not served: %v %v", got, ok)
	}
	hit, ok := c2.GetSubsuming(fp("narrow"), subInfo("bucket", 10, 20))
	if !ok || hit.Fp != fp("wide") || hit.Mat.Rows() != 4 {
		t.Fatalf("warmed subsumption probe = %+v ok=%v", hit, ok)
	}
	// Served shares stay copy-on-write isolated, as with resident entries.
	served, err := exec.ServeCachedResult(got, &exec.Env{Mounts: &exec.MountStats{}})
	if err != nil {
		t.Fatal(err)
	}
	served.Batches[0].Cols[0].Set(0, vector.Int64(99))
	again, _ := c2.Get(fp("plain"))
	if again.Batches[0].Cols[0].Int64s()[0] != 1 {
		t.Fatal("mutation through a served share reached the cache copy")
	}
}

// TestReopenIgnoresCorruptState: a truncated spill file, a garbage
// manifest, and unreferenced leftovers must never fail the open — the
// cache degrades to cold (or partially cold) and sweeps the junk.
func TestReopenIgnoresCorruptState(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{SpillDir: dir})
	put(c, fp("a"), mat(1, 2, 3))
	put(c, fp("b"), mat(4, 5, 6))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate one entry's file: it warms but the first probe drops it.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if ok, _ := filepath.Match("result-*.spill", de.Name()); ok {
			p := filepath.Join(dir, de.Name())
			if err := os.Truncate(p, 10); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	c2 := New(Config{SpillDir: dir})
	okA, okB := 0, 0
	if m, ok := c2.Get(fp("a")); ok && m.Rows() == 3 {
		okA = 1
	}
	if m, ok := c2.Get(fp("b")); ok && m.Rows() == 3 {
		okB = 1
	}
	if okA+okB != 1 {
		t.Fatalf("exactly one entry should survive the truncation, got a=%d b=%d", okA, okB)
	}

	// Garbage manifest: cold start, stray spill files swept.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "manifest.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "result-stray.spill"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := New(Config{SpillDir: dir2})
	if st := c3.Stats(); st.WarmedFromDisk != 0 || st.DiskEntries != 0 {
		t.Fatalf("corrupt manifest warmed entries: %+v", st)
	}
	if countSpillFiles(t, dir2) != 0 {
		t.Fatal("unreferenced spill file not swept")
	}
	// And the cache still works after the cold start.
	if !put(c3, fp("fresh"), mat(9)) {
		t.Fatal("cache unusable after corrupt reopen")
	}
}

// TestWarmedEntriesKeepKinds: every vector kind round-trips through a
// restart, not just int64 results.
func TestWarmedEntriesKeepKinds(t *testing.T) {
	dir := t.TempDir()
	m := &exec.Materialized{
		Schema: []plan.ColInfo{
			{Name: "s", Kind: vector.KindString},
			{Name: "f", Kind: vector.KindFloat64},
			{Name: "b", Kind: vector.KindBool},
			{Name: "t", Kind: vector.KindTime},
		},
		Batches: []*vector.Batch{vector.NewBatch(
			vector.FromString([]string{"x", "y"}),
			vector.FromFloat64([]float64{1.5, -2.5}),
			vector.FromBool([]bool{true, false}),
			vector.FromTime([]int64{100, 200}),
		)},
	}
	c := New(Config{SpillDir: dir})
	if !put(c, fp("mixed"), m) {
		t.Fatal("store rejected")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := New(Config{SpillDir: dir})
	got, ok := c2.Get(fp("mixed"))
	if !ok || got.Rows() != 2 {
		t.Fatalf("mixed-kind entry lost: %v %v", got, ok)
	}
	b := got.Batches[0]
	if b.Cols[0].Strings()[1] != "y" || b.Cols[1].Float64s()[1] != -2.5 ||
		b.Cols[2].Bools()[0] != true || b.Cols[3].Kind() != vector.KindTime {
		t.Fatalf("warmed content mismatch: %v", b)
	}
	if got.Schema[0].Name != "s" || got.Schema[3].Kind != vector.KindTime {
		t.Fatalf("warmed schema mismatch: %+v", got.Schema)
	}
}

// TestManifestAdoptsOnlyResultSpillFilesOnce is the manifest-loader
// regression: an edited manifest naming manifest.json itself, or naming
// one spill file under two fingerprints, must warm only real result
// spill files, each once — and probing the bogus entries must not
// delete the manifest.
func TestManifestAdoptsOnlyResultSpillFilesOnce(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{SpillDir: dir})
	put(c, fp("a"), mat(1, 2, 3))
	put(c, fp("b"), mat(4, 5, 6))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	self := m.Entries[0]
	self.Fingerprint, self.File = fp("self").String(), "manifest.json"
	twin := m.Entries[0]
	twin.Fingerprint = fp("twin").String()
	m.Entries = append(m.Entries, self, twin)
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}

	c2 := New(Config{SpillDir: dir})
	st := c2.Stats()
	if st.WarmedFromDisk != 2 || st.DiskEntries != 2 || st.BytesOnDisk != m.Entries[0].Bytes+m.Entries[1].Bytes {
		t.Fatalf("reopened stats = %+v, want the 2 real files counted once", st)
	}
	for _, key := range []string{"self", "twin"} {
		if _, ok := c2.Get(fp(key)); ok {
			t.Fatalf("bogus manifest entry %s served", key)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("probing the bogus entries removed the manifest: %v", err)
	}
	for _, key := range []string{"a", "b"} {
		if _, ok := c2.Get(fp(key)); !ok {
			t.Fatalf("entry %s lost", key)
		}
	}
}
