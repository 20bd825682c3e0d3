package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/vector"
)

func batchOfRows(n int) *vector.Batch {
	xs := make([]int64, n)
	ss := make([]string, n)
	for i := range xs {
		xs[i] = int64(i)
		ss[i] = "abcdefgh"
	}
	return vector.NewBatch(vector.FromInt64(xs), vector.FromString(ss))
}

// one wraps a batch as a single-batch fill.
func one(b *vector.Batch) []*vector.Batch { return []*vector.Batch{b} }

// rows totals the rows of a batch list.
func rows(bs []*vector.Batch) int {
	n := 0
	for _, b := range bs {
		n += b.Len()
	}
	return n
}

func TestNeverCacheDiscards(t *testing.T) {
	m := New(Config{Policy: NeverCache})
	m.Put("a", one(batchOfRows(10)), FullSpan(), m.Gen())
	if _, ok := m.Get("a", FullSpan()); ok {
		t.Error("NeverCache retained data")
	}
	if m.Contains("a", FullSpan()) {
		t.Error("NeverCache claims containment")
	}
	if m.Stats().Entries != 0 {
		t.Error("NeverCache has entries")
	}
}

func TestFileGranularHit(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	m.Put("a", one(batchOfRows(5)), Span{Lo: 10, Hi: 20}, m.Gen()) // span forced to Full
	if !m.Contains("a", Span{Lo: 0, Hi: 1000}) {
		t.Error("file-granular entry should cover any span")
	}
	b, ok := m.Get("a", Span{Lo: -5, Hi: 5})
	if !ok || rows(b) != 5 {
		t.Error("Get failed")
	}
	st := m.Stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTupleGranularContainment(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: TupleGranular})
	m.Put("a", one(batchOfRows(5)), Span{Lo: 100, Hi: 200}, m.Gen())
	if !m.Contains("a", Span{Lo: 120, Hi: 180}) {
		t.Error("contained span rejected")
	}
	if m.Contains("a", Span{Lo: 50, Hi: 150}) {
		t.Error("partially covered span accepted — would return wrong data")
	}
	if m.Contains("a", FullSpan()) {
		t.Error("tuple entry cannot cover a full-span request")
	}
	if _, ok := m.Get("a", Span{Lo: 0, Hi: 500}); ok {
		t.Error("Get across wider span must miss")
	}
	if m.Stats().Misses != 1 {
		t.Errorf("miss not counted: %+v", m.Stats())
	}
}

func TestSpanContains(t *testing.T) {
	full := FullSpan()
	if !full.Contains(Span{Lo: 1, Hi: 2}) || !full.Contains(full) {
		t.Error("full span containment wrong")
	}
	s := Span{Lo: 10, Hi: 20}
	if s.Contains(full) {
		t.Error("bounded span cannot contain full")
	}
	if !s.Contains(Span{Lo: 10, Hi: 20}) || s.Contains(Span{Lo: 9, Hi: 20}) {
		t.Error("boundary containment wrong")
	}
}

func TestLRUEviction(t *testing.T) {
	per := batchOfRows(100).Bytes()
	m := New(Config{Policy: LRU, Granularity: FileGranular, MaxBytes: per*2 + 10})
	m.Put("a", one(batchOfRows(100)), FullSpan(), m.Gen())
	m.Put("b", one(batchOfRows(100)), FullSpan(), m.Gen())
	// Touch a so b is the LRU victim... (a most recent)
	if _, ok := m.Get("a", FullSpan()); !ok {
		t.Fatal("warm get failed")
	}
	m.Put("c", one(batchOfRows(100)), FullSpan(), m.Gen())
	if m.Contains("b", FullSpan()) {
		t.Error("LRU should have evicted b")
	}
	if !m.Contains("a", FullSpan()) || !m.Contains("c", FullSpan()) {
		t.Error("wrong entry evicted")
	}
	if m.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", m.Stats().Evictions)
	}
}

func TestPutReplaces(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: TupleGranular})
	m.Put("a", one(batchOfRows(5)), Span{Lo: 0, Hi: 10}, m.Gen())
	m.Put("a", one(batchOfRows(50)), Span{Lo: 0, Hi: 100}, m.Gen())
	if m.Stats().Entries != 1 {
		t.Errorf("entries = %d after replace", m.Stats().Entries)
	}
	b, ok := m.Get("a", Span{Lo: 0, Hi: 100})
	if !ok || rows(b) != 50 {
		t.Error("replacement not visible")
	}
}

func TestDropAndClear(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	m.Put("a", one(batchOfRows(5)), FullSpan(), m.Gen())
	m.Put("b", one(batchOfRows(5)), FullSpan(), m.Gen())
	m.Drop("a")
	if m.Contains("a", FullSpan()) {
		t.Error("dropped entry still present")
	}
	m.Clear()
	if m.Stats().Entries != 0 || m.Stats().BytesResident != 0 {
		t.Error("clear incomplete")
	}
}

func TestNilManagerSafe(t *testing.T) {
	var m *Manager
	m.Put("a", one(batchOfRows(1)), FullSpan(), m.Gen())
	if _, ok := m.Get("a", FullSpan()); ok {
		t.Error("nil manager returned data")
	}
	m.Drop("a")
	m.Clear()
	if m.Contains("a", FullSpan()) {
		t.Error("nil manager contains data")
	}
	_ = m.Stats()
}

func TestBudgetInvariantProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New(Config{Policy: LRU, Granularity: FileGranular, MaxBytes: 2000})
		for i, s := range sizes {
			m.Put(fmt.Sprintf("f%d", i), one(batchOfRows(int(s))), FullSpan(), m.Gen())
		}
		st := m.Stats()
		// Budget holds unless a single entry exceeds it (kept to stay useful).
		return st.BytesResident <= 2000 || st.Entries == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPolicyAndGranularityStrings(t *testing.T) {
	if NeverCache.String() != "never" || LRU.String() != "lru" {
		t.Error("policy names wrong")
	}
	if FileGranular.String() != "file" || TupleGranular.String() != "tuple" {
		t.Error("granularity names wrong")
	}
}

// TestStreamingPutAssemblesEntry: the batches a flight extracts become
// one entry, in extraction order.
func TestStreamingPutAssemblesEntry(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	m.Put("f1", []*vector.Batch{batchOfRows(3), batchOfRows(2)}, FullSpan(), m.Gen())
	bs, ok := m.Get("f1", FullSpan())
	if !ok || rows(bs) != 5 || len(bs) != 2 || bs[1].Len() != 2 {
		t.Fatalf("entry = %d rows in %d batches, want 5 in 2", rows(bs), len(bs))
	}
}

func TestStreamingPutIsolatedFromAppendedBatches(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	src := batchOfRows(4)
	m.Put("f1", one(src.Share()), FullSpan(), m.Gen())
	src.Cols[0].Set(0, vector.Int64(-77)) // the flight's batch is mutated later
	b, _ := m.Get("f1", FullSpan())
	if b[0].Cols[0].Int64s()[0] != 0 {
		t.Error("Put aliased the filled batch")
	}
}

// TestGetSharesAreCopyOnWrite pins the new boundary contract: Get hands
// out O(1) shares, and a consumer mutating its share (through the
// sanctioned mutation API) never corrupts the entry.
func TestGetSharesAreCopyOnWrite(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	m.Put("f1", one(batchOfRows(4)), FullSpan(), m.Gen())
	got, ok := m.Get("f1", FullSpan())
	if !ok {
		t.Fatal("miss")
	}
	got[0].Cols[0].Set(0, vector.Int64(-1))
	vals := got[0].Cols[0].MutableInt64s()
	for i := range vals {
		vals[i] = -9
	}
	again, _ := m.Get("f1", FullSpan())
	if again[0].Cols[0].Int64s()[0] != 0 {
		t.Error("cached entry corrupted through a consumer's share")
	}
}

// TestRepeatedFillReplacesEntry: two fills of one URI never
// double-insert — the later one replaces the entry, and the ledger
// counts one entry's bytes.
func TestRepeatedFillReplacesEntry(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	first, second := m.Gen(), m.Gen()
	m.Put("f1", one(batchOfRows(9)), FullSpan(), first)
	m.Put("f1", one(batchOfRows(2)), FullSpan(), second)
	if b, ok := m.Get("f1", FullSpan()); !ok || rows(b) != 2 {
		t.Error("the later fill did not replace the entry")
	}
	if st := m.Stats(); st.Entries != 1 || st.BytesResident != batchOfRows(2).Bytes() {
		t.Errorf("stats after two fills = %+v", st)
	}
}

// TestAbandonedFillBlocksNothing: a fill that took its ticket and never
// finished leaves no entry and holds nothing against later fills.
func TestAbandonedFillBlocksNothing(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	_ = m.Gen() // a flight starts, then is abandoned before its Put
	if _, ok := m.Get("f1", FullSpan()); ok {
		t.Error("abandoned fill left an entry")
	}
	m.Put("f1", one(batchOfRows(1)), FullSpan(), m.Gen())
	if _, ok := m.Get("f1", FullSpan()); !ok {
		t.Error("Put blocked after an abandoned fill")
	}
}

// TestEmptyCommitStoresNothing: a file-granular fill that extracted no
// batches leaves no entry.
func TestEmptyCommitStoresNothing(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	m.Put("f1", nil, FullSpan(), m.Gen())
	if st := m.Stats(); st.Entries != 0 {
		t.Errorf("empty fill stored %d entries", st.Entries)
	}
}

func TestDropInvalidatesPendingInsert(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	since := m.Gen()
	// The underlying file changed mid-stream: the drop must win.
	m.Drop("f1")
	m.Put("f1", one(batchOfRows(3)), FullSpan(), since)
	if _, ok := m.Get("f1", FullSpan()); ok {
		t.Error("a fill begun before Drop resurrected the URI")
	}
	// A fill of another URI begun before the drop is unaffected.
	m.Put("f2", one(batchOfRows(3)), FullSpan(), since)
	if !m.Contains("f2", FullSpan()) {
		t.Error("Drop of f1 voided a fill of f2")
	}
	// A fresh fill after the drop works.
	m.Put("f1", one(batchOfRows(1)), FullSpan(), m.Gen())
	if b, ok := m.Get("f1", FullSpan()); !ok || rows(b) != 1 {
		t.Error("fresh fill after drop failed")
	}
}

func TestClearInvalidatesPendingInserts(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular})
	since := m.Gen()
	m.Clear()
	m.Put("f1", one(batchOfRows(3)), FullSpan(), since)
	if st := m.Stats(); st.Entries != 0 {
		t.Errorf("pending insert repopulated a cleared cache: %d entries", st.Entries)
	}
}

// TestOnInvalidateHook pins the result-cache wiring contract: Drop and
// Clear fire the hook (Drop even for a URI that is not resident — it
// still means "the file changed"), while plain gets, puts and budget
// evictions never do.
func TestOnInvalidateHook(t *testing.T) {
	m := New(Config{Policy: LRU, Granularity: FileGranular, MaxBytes: 1})
	fired := 0
	m.SetOnInvalidate(func() { fired++ })

	m.Put("f1", one(batchOfRows(3)), FullSpan(), m.Gen())
	m.Put("f2", one(batchOfRows(3)), FullSpan(), m.Gen()) // evicts f1 (budget of 1 byte)
	m.Get("f1", FullSpan())
	if st := m.Stats(); st.Evictions == 0 {
		t.Fatal("test setup: no eviction happened")
	}
	if fired != 0 {
		t.Fatalf("hook fired %d times on put/get/evict, want 0", fired)
	}

	m.Drop("not-resident")
	if fired != 1 {
		t.Fatalf("hook fired %d times after Drop of a non-resident URI, want 1", fired)
	}
	m.Drop("f2")
	if fired != 2 {
		t.Fatalf("hook fired %d times after Drop, want 2", fired)
	}
	m.Clear()
	if fired != 3 {
		t.Fatalf("hook fired %d times after Clear, want 3", fired)
	}

	// A NeverCache manager carries the signal too.
	n := New(Config{Policy: NeverCache})
	n.SetOnInvalidate(func() { fired++ })
	n.Drop("f1")
	if fired != 4 {
		t.Fatal("NeverCache Drop did not fire the hook")
	}
}
