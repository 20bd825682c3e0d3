package csvfmt

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/vector"
)

func writeSample(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	err := WriteFile(path, "S1", "delta", "temperature", 1000,
		map[int64][]float64{
			0: {20.0, 20.5, 21.0},
			1: {22.0, 22.5},
		},
		map[int64]int64{0: 1_000_000, 1: 2_000_000},
	)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAdapterImplementsInterface(t *testing.T) {
	var _ catalog.FormatAdapter = NewAdapter()
}

func TestExtractMetadata(t *testing.T) {
	dir := t.TempDir()
	path := writeSample(t, dir, "s1.csv")
	a := NewAdapter()
	fm, rms, err := a.ExtractMetadata(path, "s1.csv")
	if err != nil {
		t.Fatal(err)
	}
	if fm.Values[1].S != "S1" || fm.Values[2].S != "delta" || fm.Values[3].S != "temperature" {
		t.Errorf("file meta = %+v", fm.Values)
	}
	if fm.Values[5].I != 2 {
		t.Errorf("segment count = %d", fm.Values[5].I)
	}
	if len(rms) != 2 {
		t.Fatalf("records = %d", len(rms))
	}
	if rms[0].Values[4].I != 3 || rms[1].Values[4].I != 2 {
		t.Error("row counts wrong")
	}
	lo, hi, ok := a.RecordSpan(rms[0])
	if !ok || lo != 1_000_000 || hi != 1_000_000+2*1000 {
		t.Errorf("span = [%d,%d]", lo, hi)
	}
}

func TestMount(t *testing.T) {
	dir := t.TempDir()
	path := writeSample(t, dir, "s1.csv")
	a := NewAdapter()
	b, err := catalog.CollectMount(a, path, "s1.csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 5 {
		t.Fatalf("rows = %d, want 5", b.Len())
	}
	if b.Cols[3].Float64s()[1] != 20.5 {
		t.Error("reading values wrong")
	}
	if b.Cols[2].Int64s()[1] != 1_001_000 {
		t.Errorf("timestamp = %d", b.Cols[2].Int64s()[1])
	}
	// Filtered mount.
	b, err = catalog.CollectMount(a, path, "s1.csv", func(rm catalog.RecordMeta) bool { return rm.RecordID == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Errorf("filtered rows = %d", b.Len())
	}
}

func TestMalformedFiles(t *testing.T) {
	dir := t.TempDir()
	a := NewAdapter()
	cases := map[string]string{
		"reading-before-segment": "#sensor: x\n1.5\n",
		"bad-segment":            "#segment nope\n",
		"bad-period":             "#period_ns: -5\n",
		"bad-header":             "#justtext\n",
		"bad-reading":            "#segment 0 100\nnot_a_number\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name+".csv")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if name == "bad-reading" {
			// Structure scan tolerates unparsed readings; mount must fail.
			if _, err := catalog.CollectMount(a, path, name, nil); err == nil {
				t.Errorf("%s: Mount accepted garbage", name)
			}
			continue
		}
		if _, _, err := a.ExtractMetadata(path, name); err == nil {
			t.Errorf("%s: ExtractMetadata accepted garbage", name)
		}
	}
}

// TestTwoStageOverCSV proves the generalization claim: the identical
// two-stage engine explores a CSV repository through this adapter.
func TestTwoStageOverCSV(t *testing.T) {
	repoDir := t.TempDir()
	// Three sensors at two sites; sensor S2 at site delta is of interest.
	mk := func(name, sensor, site string, base float64) {
		err := WriteFile(filepath.Join(repoDir, name), sensor, site, "temperature", 1000,
			map[int64][]float64{
				0: {base, base + 1, base + 2},
				1: {base + 10, base + 11},
			},
			map[int64]int64{0: 1_000_000, 1: 5_000_000},
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	mk("a.csv", "S1", "alpha", 10)
	mk("b.csv", "S2", "delta", 20)
	mk("c.csv", "S3", "delta", 30)

	eng, err := core.Open(core.Options{
		Mode:    core.ModeALi,
		RepoDir: repoDir,
		DBDir:   filepath.Join(t.TempDir(), "db"),
		Adapter: NewAdapter(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	res, err := eng.Query(`SELECT AVG(CSV_READINGS.reading)
		FROM CSV_FILES JOIN CSV_SEGMENTS ON CSV_FILES.uri = CSV_SEGMENTS.uri
		JOIN CSV_READINGS ON CSV_SEGMENTS.uri = CSV_READINGS.uri
			AND CSV_SEGMENTS.record_id = CSV_READINGS.record_id
		WHERE CSV_FILES.sensor = 'S2'`)
	if err != nil {
		t.Fatal(err)
	}
	want := (20.0 + 21 + 22 + 30 + 31) / 5
	if math.Abs(res.Float(0, 0)-want) > 1e-9 {
		t.Errorf("AVG = %v, want %v", res.Float(0, 0), want)
	}
	if res.Stats.FilesOfInterest != 1 || res.Stats.Mounts.FilesMounted != 1 {
		t.Errorf("two-stage machinery not engaged: %+v", res.Stats)
	}

	// Metadata-only query over the CSV schema.
	meta, err := eng.Query(`SELECT site, COUNT(*) AS sensors FROM CSV_FILES GROUP BY site ORDER BY site`)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Stats.MetadataOnly || meta.Rows() != 2 {
		t.Errorf("metadata query wrong: rows=%d", meta.Rows())
	}
	if meta.Value(1, 0).S != "delta" || meta.Value(1, 1).I != 2 {
		t.Errorf("group result wrong: %v %v", meta.Value(1, 0), meta.Value(1, 1))
	}
}

func TestTimeWindowPushdownCSV(t *testing.T) {
	repoDir := t.TempDir()
	err := WriteFile(filepath.Join(repoDir, "w.csv"), "S1", "alpha", "t", 1000,
		map[int64][]float64{0: {1, 2, 3, 4, 5}},
		map[int64]int64{0: 0})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(core.Options{
		Mode:    core.ModeALi,
		RepoDir: repoDir,
		DBDir:   filepath.Join(t.TempDir(), "db"),
		Adapter: NewAdapter(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Readings at 0,1000,...,4000 ns; pick the middle three via epoch
	// nanosecond comparison against an integer literal.
	res, err := eng.Query(`SELECT COUNT(*)
		FROM CSV_SEGMENTS JOIN CSV_READINGS ON CSV_SEGMENTS.uri = CSV_READINGS.uri
			AND CSV_SEGMENTS.record_id = CSV_READINGS.record_id
		WHERE CSV_READINGS.reading_time >= 1000 AND CSV_READINGS.reading_time <= 3000`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value(0, 0).I; got != 3 {
		t.Errorf("COUNT = %d, want 3", got)
	}
}

// TestMountStreamParity proves the streaming path yields exactly the
// rows of the materializing path, segment-aligned.
func TestMountStreamParity(t *testing.T) {
	a := NewAdapter()
	path := writeSample(t, t.TempDir(), "s1.csv")
	whole, err := catalog.CollectMount(a, path, "s1.csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []*vector.Batch
	err = a.MountStream(path, "s1.csv", nil, 3, func(b *vector.Batch) error {
		streamed = append(streamed, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	row := 0
	for _, b := range streamed {
		for i := 0; i < b.Len(); i++ {
			for c := range b.Cols {
				if vector.Compare(b.Cols[c].Get(i), whole.Cols[c].Get(row)) != 0 {
					t.Fatalf("row %d col %d differs between stream and mount", row, c)
				}
			}
			row++
		}
	}
	if row != whole.Len() {
		t.Fatalf("stream yielded %d rows, mount %d", row, whole.Len())
	}
	if len(streamed) < 2 {
		t.Errorf("expected segment-aligned flushes, got %d batch(es)", len(streamed))
	}
}

// TestMountStreamSkipsRejectedSegments: the streaming path never parses
// the float values of segments the fused selection rejects.
func TestMountStreamRejectedSegmentsNotParsed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.csv")
	// Segment 1's values are not valid floats: parsing them would error.
	content := "#sensor: S1\n#site: x\n#quantity: q\n#period_ns: 1000\n" +
		"#segment 0 1000000\n1.5\n2.5\n" +
		"#segment 1 2000000\nnot-a-number\nstill-not\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	a := NewAdapter()
	rows := 0
	err := a.MountStream(path, "bad.csv", func(rm catalog.RecordMeta) bool {
		return rm.RecordID == 0
	}, 0, func(b *vector.Batch) error {
		rows += b.Len()
		return nil
	})
	if err != nil {
		t.Fatalf("rejected segment was parsed: %v", err)
	}
	if rows != 2 {
		t.Errorf("rows = %d, want 2", rows)
	}
}
