package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/vector"
)

const pattern = "s-*.spill"

// batches builds a one-batch list of n int64 rows starting at v.
func batches(v int64, n int) []*vector.Batch {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = v + int64(i)
	}
	return []*vector.Batch{vector.NewBatch(vector.FromInt64(xs))}
}

func first(t *testing.T, bs []*vector.Batch) int64 {
	t.Helper()
	if len(bs) == 0 || bs[0].Len() == 0 {
		t.Fatal("empty entry")
	}
	return bs[0].Cols[0].Int64s()[0]
}

// checkIdle pins the ledgers of an idle store: no entry is between
// tiers, each tier's byte count is the sum of its entries, every entry
// is in exactly one tier, and the spill files of the pattern on disk
// are exactly the disk tier's.
func checkIdle(t *testing.T, s *Store[string, int], dir string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var resident, onDisk int64
	want := make(map[string]bool)
	for el := s.order.Front(); el != nil; el = el.Next() {
		resident += el.Value.(*entry[string, int]).bytes
	}
	for el := s.diskOrder.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[string, int])
		onDisk += e.bytes
		want[filepath.Base(e.path)] = true
	}
	if resident != s.bytes || onDisk != s.diskBytes {
		t.Errorf("ledgers: resident %d (entries sum %d), disk %d (entries sum %d)", s.bytes, resident, s.diskBytes, onDisk)
	}
	if n := s.order.Len() + s.diskOrder.Len(); n != len(s.entries) {
		t.Errorf("%d entries, but %d resident + %d spilled", len(s.entries), s.order.Len(), s.diskOrder.Len())
	}
	for _, e := range s.entries {
		if e.el == nil || e.loading != nil {
			t.Errorf("idle store has an entry between tiers: %+v", e)
		}
	}
	if dir == "" {
		return
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if ok, _ := filepath.Match(pattern, de.Name()); ok && !want[de.Name()] {
			t.Errorf("spill file %s belongs to no disk-tier entry", de.Name())
		}
		delete(want, de.Name())
	}
	if len(want) != 0 {
		t.Errorf("disk-tier files missing: %v", want)
	}
}

func TestPutGetAndLRU(t *testing.T) {
	per := batches(0, 4)[0].Bytes()
	s := New[string, int](Config{MaxBytes: 2 * per})
	s.Put("a", 1, batches(10, 4), s.Gen())
	s.Put("b", 2, batches(20, 4), s.Gen())
	if bs, meta, ok := s.Get("a"); !ok || meta != 1 || first(t, bs) != 10 {
		t.Fatalf("Get(a) = %v, %d, %v", bs, meta, ok)
	}
	s.Put("c", 3, batches(30, 4), s.Gen()) // b is least recently served
	if _, _, ok := s.Get("b"); ok {
		t.Fatal("LRU kept the least recently served entry")
	}
	if meta, bytes, ok := s.Meta("c"); !ok || meta != 3 || bytes != per {
		t.Fatalf("Meta(c) = %d, %d, %v", meta, bytes, ok)
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 2 || st.BytesResident != 2*per {
		t.Fatalf("stats = %+v", st)
	}
	checkIdle(t, s, "")
}

// TestOverBudgetEntryStaysAlone: an entry larger than the whole budget
// is kept on its own rather than rejected.
func TestOverBudgetEntryStaysAlone(t *testing.T) {
	s := New[string, int](Config{MaxBytes: 8})
	s.Put("small", 0, batches(0, 1), s.Gen())
	s.Put("huge", 0, batches(0, 100), s.Gen())
	if st := s.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, _, ok := s.Get("huge"); !ok {
		t.Fatal("over-budget entry not kept alone")
	}
}

// TestReplaceCountsOnce: a second Put of a key replaces the entry and
// the ledger counts only the new one.
func TestReplaceCountsOnce(t *testing.T) {
	s := New[string, int](Config{})
	s.Put("a", 1, batches(0, 50), s.Gen())
	s.Put("a", 2, batches(7, 5), s.Gen())
	bs, meta, _ := s.Get("a")
	if meta != 2 || first(t, bs) != 7 {
		t.Fatal("replacement not visible")
	}
	if st := s.Stats(); st.Entries != 1 || st.BytesResident != batches(0, 5)[0].Bytes() {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGenerationsVoidStaleFills pins the fill guard: a fill begun before
// a Clear, or before a Remove of its key, is rejected; fills of other
// keys and fills begun afterwards are not; a ticket from the future is
// rejected too.
func TestGenerationsVoidStaleFills(t *testing.T) {
	s := New[string, int](Config{})
	before := s.Gen()
	s.Remove("a")
	if s.Put("a", 0, batches(0, 1), before) {
		t.Error("a fill begun before Remove(a) was stored")
	}
	if !s.Put("b", 0, batches(0, 1), before) {
		t.Error("Remove(a) voided a fill of b")
	}
	if !s.Put("a", 0, batches(0, 1), s.Gen()) {
		t.Error("a fill begun after Remove(a) was rejected")
	}
	before = s.Gen()
	if n := s.Clear(); n != 2 {
		t.Errorf("Clear dropped %d entries, want 2", n)
	}
	if s.Put("b", 0, batches(0, 1), before) {
		t.Error("a fill begun before Clear was stored")
	}
	if s.Put("b", 0, batches(0, 1), s.Gen()+1) {
		t.Error("a ticket from the future was accepted")
	}
	if !s.Put("b", 0, batches(0, 1), s.Gen()) {
		t.Error("a fill begun after Clear was rejected")
	}
}

// TestPutFreezesAdoptedHandles: the store freezes the storage of the
// shares it adopts — a write through the caller's own handle copies
// first and leaves the entry intact.
func TestPutFreezesAdoptedHandles(t *testing.T) {
	s := New[string, int](Config{})
	b := batches(1, 3)[0]
	s.Put("a", 0, []*vector.Batch{b.Share()}, s.Gen())
	b.Cols[0].Set(0, vector.Int64(-1))
	got, _, _ := s.Get("a")
	if first(t, got) != 1 {
		t.Fatal("a write through the adopted handle reached the entry")
	}
}

func TestDemotePromoteAndCorruptFile(t *testing.T) {
	dir := t.TempDir()
	per := batches(0, 4)[0].Bytes()
	s := New[string, int](Config{MaxBytes: per, SpillDir: dir, SpillPattern: pattern})
	s.Put("old", 1, batches(10, 4), s.Gen())
	s.Put("new", 2, batches(20, 4), s.Gen())
	if st := s.Stats(); st.Demotions != 1 || st.DiskEntries != 1 || st.BytesOnDisk != per || st.Evictions != 0 {
		t.Fatalf("stats after pressure = %+v", st)
	}
	checkIdle(t, s, dir)
	bs, meta, ok := s.Get("old")
	if !ok || meta != 1 || first(t, bs) != 10 {
		t.Fatalf("promoted entry = %v, %d, %v", bs, meta, ok)
	}
	if st := s.Stats(); st.Promotions != 1 || st.Demotions != 2 {
		t.Fatalf("stats after promotion = %+v", st)
	}
	checkIdle(t, s, dir)
	// Corrupt the spilled entry's file: the probe misses and drops it.
	files := s.Files()
	if len(files) != 1 || files[0].Key != "new" {
		t.Fatalf("disk tier = %+v", files)
	}
	if err := os.WriteFile(filepath.Join(dir, files[0].Name), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("new"); ok {
		t.Fatal("corrupt spill file served")
	}
	if _, _, ok := s.Meta("new"); ok {
		t.Fatal("corrupt entry not dropped")
	}
	checkIdle(t, s, dir)
}

func TestDiskTierBudget(t *testing.T) {
	dir := t.TempDir()
	per := batches(0, 4)[0].Bytes()
	s := New[string, int](Config{MaxBytes: per, SpillDir: dir, SpillPattern: pattern, DiskMaxBytes: per})
	for i := 0; i < 4; i++ {
		s.Put(fmt.Sprint(i), i, batches(int64(i), 4), s.Gen())
	}
	if st := s.Stats(); st.Entries != 1 || st.DiskEntries != 1 || st.DiskEvictions != 2 {
		t.Fatalf("stats = %+v", st)
	}
	checkIdle(t, s, dir)
}

// TestCloseRestoreRoundTrip: Close demotes everything; a new store
// restored from Files serves every entry, at the saved generation.
func TestCloseRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := New[string, int](Config{SpillDir: dir, SpillPattern: pattern})
	s.Clear()
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprint(i), i, batches(int64(10*i), 2), s.Gen())
	}
	s.Close()
	files := s.Files()
	if len(files) != 3 || s.Stats().Entries != 0 {
		t.Fatalf("Close left %d files, %+v", len(files), s.Stats())
	}
	s2 := New[string, int](Config{SpillDir: dir, SpillPattern: pattern})
	if got := s2.Restore(s.Gen(), files); len(got) != 3 || s2.Gen() != 1 {
		t.Fatalf("restored %d files at generation %d", len(got), s2.Gen())
	}
	for i := 0; i < 3; i++ {
		bs, meta, ok := s2.Get(fmt.Sprint(i))
		if !ok || meta != i || first(t, bs) != int64(10*i) {
			t.Fatalf("restored entry %d = %v, %d, %v", i, bs, meta, ok)
		}
	}
	checkIdle(t, s2, dir)
}

// TestRestoreAdoptsOnlyPatternFilesOnce: a listing naming a file outside
// the spill pattern, a missing file, a file twice, or a key twice adopts
// each real spill file at most once, touches nothing outside the
// pattern, and sweeps the pattern's unadopted files.
func TestRestoreAdoptsOnlyPatternFilesOnce(t *testing.T) {
	dir := t.TempDir()
	s := New[string, int](Config{SpillDir: dir, SpillPattern: pattern})
	s.Put("a", 1, batches(1, 2), s.Gen())
	s.Put("b", 2, batches(2, 2), s.Gen())
	s.Close()
	files := s.Files()
	other := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(other, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "s-stray.spill")
	if err := os.WriteFile(stray, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	listing := []File[string, int]{
		{Key: "m", Name: "manifest.json", Bytes: 1},
		{Key: "gone", Name: "s-missing.spill", Bytes: 1},
		files[0],
		{Key: "dup-file", Meta: 9, Name: files[0].Name, Bytes: files[0].Bytes},
		{Key: files[0].Key, Name: files[1].Name, Bytes: files[1].Bytes},
	}
	s2 := New[string, int](Config{SpillDir: dir, SpillPattern: pattern})
	got := s2.Restore(0, listing)
	if len(got) != 1 || got[0].Key != files[0].Key {
		t.Fatalf("adopted %+v, want only %s", got, files[0].Key)
	}
	if st := s2.Stats(); st.DiskEntries != 1 || st.BytesOnDisk != files[0].Bytes {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatal("Restore removed a file outside the spill pattern")
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("unadopted spill file not swept")
	}
	for _, key := range []string{"m", "dup-file"} {
		if _, _, ok := s2.Get(key); ok {
			t.Fatalf("%s served", key)
		}
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatal("a probe removed a file outside the spill pattern")
	}
	checkIdle(t, s2, dir)
}

// TestConcurrentTierMoves drives Put, Get, Remove and Clear at once over
// a two-entry resident budget with a disk tier, so demotions and
// promotions interleave with hits and invalidations. Every served entry
// must be its key's own; once idle the ledgers and the spill directory
// must agree.
func TestConcurrentTierMoves(t *testing.T) {
	dir := t.TempDir()
	per := batches(0, 3)[0].Bytes()
	s := New[string, int](Config{MaxBytes: 2 * per, SpillDir: dir, SpillPattern: pattern})
	const keys = 6
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 300; n++ {
				i := (g + n) % keys
				key := fmt.Sprint(i)
				switch n % 5 {
				case 0, 1:
					s.Put(key, i, batches(int64(100*i), 3), s.Gen())
				case 2, 3:
					if bs, meta, ok := s.Get(key); ok && (meta != i || bs[0].Cols[0].Int64s()[0] != int64(100*i)) {
						t.Errorf("key %d served entry %d", i, meta)
						return
					}
				default:
					if n%25 == 4 {
						s.Clear()
					} else {
						s.Remove(key)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkIdle(t, s, dir)
	if st := s.Stats(); st.Demotions == 0 || st.Promotions == 0 {
		t.Fatalf("no entry moved between tiers: %+v", st)
	}
	s.Close()
	checkIdle(t, s, dir)
}

// TestConcurrentPromotionReadsOnce: Gets racing for one spilled entry
// share a single read of its file.
func TestConcurrentPromotionReadsOnce(t *testing.T) {
	dir := t.TempDir()
	per := batches(0, 3)[0].Bytes()
	s := New[string, int](Config{MaxBytes: per, SpillDir: dir, SpillPattern: pattern})
	s.Put("a", 1, batches(1, 3), s.Gen())
	s.Put("b", 2, batches(2, 3), s.Gen()) // demotes a
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if bs, _, ok := s.Get("a"); !ok || bs[0].Cols[0].Int64s()[0] != 1 {
				t.Error("spilled entry missed or wrong")
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", st.Promotions)
	}
	checkIdle(t, s, dir)
}
