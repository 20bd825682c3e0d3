package resultcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
)

// answer is the one correct result for key i: every store and every
// recomputation of i produces it, so whatever tier serves i must too.
func answer(i int) *exec.Materialized {
	return mat(int64(i), int64(i)*10, int64(i)*100)
}

func checkAnswer(t *testing.T, what string, i int, got *exec.Materialized) {
	t.Helper()
	want := answer(i).Batches[0].Cols[0].Int64s()
	if got.Rows() != len(want) {
		t.Errorf("%s: key %d served %d rows, want %d", what, i, got.Rows(), len(want))
		return
	}
	var vals []int64
	for _, b := range got.Batches {
		vals = append(vals, b.Cols[0].Int64s()...)
	}
	for j := range want {
		if vals[j] != want[j] {
			t.Errorf("%s: key %d served %v, want %v", what, i, vals, want)
			return
		}
	}
}

// checkIdle pins the ledgers of an idle cache: the disk tier's byte
// count is the sum of its entries, and the spill files on disk are
// exactly the disk tier's. (The store's own tests pin the resident
// ledger and that no entry stays between tiers.)
func checkIdle(t *testing.T, c *Cache, dir string) {
	t.Helper()
	files := c.store.Files()
	st := c.Stats()
	var onDisk int64
	for _, f := range files {
		onDisk += f.Bytes
	}
	if onDisk != st.BytesOnDisk || len(files) != st.DiskEntries {
		t.Errorf("disk ledger: %d bytes in %d entries, files sum %d bytes in %d", st.BytesOnDisk, st.DiskEntries, onDisk, len(files))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	onDir := make(map[string]bool)
	for _, de := range ents {
		if ok, _ := filepath.Match("result-*.spill", de.Name()); ok {
			onDir[de.Name()] = true
		}
	}
	for _, f := range files {
		if !onDir[f.Name] {
			t.Errorf("disk-tier entry's file %s is missing", f.Name)
		}
		delete(onDir, f.Name)
	}
	if len(onDir) != 0 {
		t.Errorf("%d spill files belong to no disk-tier entry", len(onDir))
	}
}

// TestConcurrentTierMovesUnderRace drives every probe and store path at
// once over a resident budget of two entries with a disk tier, so
// demotions and promotions interleave with hits, subsumption probes and
// invalidations. Every served answer must be the key's own; once idle
// the ledgers and the spill directory must agree, and Close must leave a
// manifest a new cache warms every entry from.
func TestConcurrentTierMovesUnderRace(t *testing.T) {
	dir := t.TempDir()
	per := matBytes(answer(0))
	c := New(Config{MaxBytes: 2 * per, SpillDir: dir})
	const keys = 6
	// Wide entries w<i> cover [0, 100(i+1)]: each contains the narrow
	// probe [10, 20], so any of them may answer it.
	wide := func(i int) plan.Fingerprint { return fp(fmt.Sprintf("w%d", i)) }
	wideOf := make(map[plan.Fingerprint]int)
	for i := 0; i < keys; i++ {
		wideOf[wide(i)] = i
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 300; n++ {
				i := (g + n) % keys
				key := fp(fmt.Sprintf("q%d", i))
				switch n % 6 {
				case 0, 1:
					got, _, err := c.Do(key, nil, func() (*exec.Materialized, bool, error) {
						return answer(i), true, nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					checkAnswer(t, "Do", i, got)
				case 2:
					if got, ok := c.Get(key); ok {
						checkAnswer(t, "Get", i, got)
					}
				case 3:
					c.PutAt(wide(i), answer(i), c.Epoch(), subInfo("bucket", 0, int64(100*(i+1))))
				case 4:
					if hit, ok := c.GetSubsuming(fp("narrow"), subInfo("bucket", 10, 20)); ok {
						w, known := wideOf[hit.Fp]
						if !known {
							t.Errorf("subsumption served unknown entry %v", hit.Fp)
							return
						}
						checkAnswer(t, "GetSubsuming", w, hit.Mat)
					}
				default:
					if n%30 == 5 {
						c.BumpEpoch()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkIdle(t, c, dir)

	before := c.Stats()
	if before.Demotions == 0 || before.Promotions == 0 {
		t.Fatalf("no entry moved between tiers: %+v", before)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	checkIdle(t, c, dir)
	st := c.Stats()
	if st.Entries != 0 || st.DiskEntries != before.Entries+before.DiskEntries {
		t.Fatalf("Close left %d resident, %d on disk; want 0 and %d", st.Entries, st.DiskEntries, before.Entries+before.DiskEntries)
	}
	c2 := New(Config{MaxBytes: 2 * per, SpillDir: dir})
	if got := c2.Stats().WarmedFromDisk; got != int64(st.DiskEntries) {
		t.Fatalf("reopen warmed %d entries, want %d", got, st.DiskEntries)
	}
	for i := 0; i < keys; i++ {
		if got, ok := c2.Get(fp(fmt.Sprintf("q%d", i))); ok {
			checkAnswer(t, "warmed Get", i, got)
		}
	}
	checkIdle(t, c2, dir)
}

// TestConcurrentPromotionReadsOnce: probes racing for one spilled entry
// share a single read of its file.
func TestConcurrentPromotionReadsOnce(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{MaxBytes: matBytes(answer(0)), SpillDir: dir})
	put(c, fp("a"), answer(1))
	put(c, fp("b"), answer(2)) // demotes a
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, ok := c.Get(fp("a"))
			if !ok {
				t.Error("spilled entry missed")
				return
			}
			checkAnswer(t, "Get", 1, got)
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Promotions != 1 || st.Hits != 8 {
		t.Fatalf("promotions = %d, hits = %d; want 1 and 8", st.Promotions, st.Hits)
	}
	checkIdle(t, c, dir)
}

// TestReopenReadsOlderManifest: a manifest carrying the fields older
// releases wrote per entry (the storing session and a recompute cost)
// still warms the cache.
func TestReopenReadsOlderManifest(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{SpillDir: dir})
	put(c, fp("a"), answer(1))
	put(c, fp("b"), answer(2))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, me := range m["entries"].([]any) {
		me.(map[string]any)["session"] = "dashboard"
		me.(map[string]any)["cost_ns"] = 2000000
	}
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := New(Config{SpillDir: dir})
	if st := c2.Stats(); st.WarmedFromDisk != 2 {
		t.Fatalf("older manifest warmed %d entries, want 2", st.WarmedFromDisk)
	}
	for i, key := range []string{"a", "b"} {
		got, ok := c2.Get(fp(key))
		if !ok {
			t.Fatalf("entry %s not served after reopen", key)
		}
		checkAnswer(t, "warmed Get", i+1, got)
	}
}
