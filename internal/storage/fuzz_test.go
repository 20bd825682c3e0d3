package storage

import (
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"

	"repro/internal/vector"
)

// largeAllocs counts the heap allocations of 32 KiB or more made so far
// (the top bucket of the runtime's allocation-size histogram).
func largeAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	metrics.Read(s)
	counts := s[0].Value.Float64Histogram().Counts
	return counts[len(counts)-1]
}

// FuzzBatchReader feeds arbitrary bytes to the spill reader as a file:
// opening and reading it to the end must fail with an error, never
// panic, and a file under 4 KiB must never make an allocation of 32 KiB
// or more — no length or count field may size an allocation past what
// the file holds.
func FuzzBatchReader(f *testing.F) {
	dir := f.TempDir()
	kinds := []vector.Kind{vector.KindString, vector.KindInt64, vector.KindFloat64, vector.KindBool, vector.KindTime}
	batch := vector.NewBatch(
		vector.FromString([]string{"a", "bb", "a"}), vector.FromInt64([]int64{1, -2, 3}),
		vector.FromFloat64([]float64{0.5, -1, 2}), vector.FromBool([]bool{true, false, true}),
		vector.FromTime([]int64{10, 20, 30}),
	)
	empty := vector.NewBatch(vector.New(vector.KindString, 0), vector.New(vector.KindInt64, 0),
		vector.New(vector.KindFloat64, 0), vector.New(vector.KindBool, 0), vector.New(vector.KindTime, 0))
	path, err := WriteSpill(dir, "seed-*.spill", []*vector.Batch{batch, empty, batch}, NoCost(), nil)
	if err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-5])                      // no end frame
	f.Add(good[:len(spillMagic)+4+len(kinds)])     // header only
	f.Add(append([]byte{}, spillMagic[:]...))      // magic only
	f.Add([]byte("RSPILL1\n\xff\xff\xff\xff\x01")) // hostile column count

	path = filepath.Join(dir, "fuzz.spill")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := largeAllocs()
		if r, err := OpenBatchReader(path, NoCost(), nil); err == nil {
			for {
				b, err := r.Next()
				if err != nil || b == nil {
					break
				}
			}
			r.Close()
		}
		if len(data) < 4<<10 && largeAllocs() != before {
			t.Fatalf("reading a %d-byte file made an allocation of 32 KiB or more", len(data))
		}
	})
}
