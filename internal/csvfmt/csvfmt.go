// Package csvfmt is the second format adapter of the repository,
// demonstrating the paper's generalization challenge: "a generalized
// medium for the scientific developer [to] define domain- and
// format-specific mappings and extractions in a simpler way".
//
// The format is a sensor-log CSV dialect: a file starts with '#key: value'
// metadata header lines (sensor id, site, quantity, sample period), then
// one or more '#segment <id> <start_epoch_ns>' sections, each followed by
// one numeric reading per line. Segments play the role of records:
// their metadata (start, row count) is derivable by scanning line
// structure only, without parsing the readings — preserving the cheap
// metadata-extraction / expensive mount asymmetry that drives the
// two-stage paradigm.
package csvfmt

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Table names of the CSV sensor schema.
const (
	FileTable   = "CSV_FILES"
	RecordTable = "CSV_SEGMENTS"
	DataTable   = "CSV_READINGS"
)

// AdapterName identifies this format in the registry.
const AdapterName = "csv"

// Adapter implements catalog.FormatAdapter for sensor-log CSV files.
type Adapter struct{}

// NewAdapter returns the CSV adapter.
func NewAdapter() *Adapter { return &Adapter{} }

// Name implements catalog.FormatAdapter.
func (a *Adapter) Name() string { return AdapterName }

// Tables implements catalog.FormatAdapter.
func (a *Adapter) Tables() (file, record, data catalog.TableDef) {
	file = catalog.TableDef{
		Name: FileTable,
		Kind: catalog.Metadata,
		Columns: []storage.Column{
			{Name: "uri", Kind: vector.KindString},
			{Name: "sensor", Kind: vector.KindString},
			{Name: "site", Kind: vector.KindString},
			{Name: "quantity", Kind: vector.KindString},
			{Name: "size_bytes", Kind: vector.KindInt64},
			{Name: "segment_count", Kind: vector.KindInt64},
		},
	}
	record = catalog.TableDef{
		Name: RecordTable,
		Kind: catalog.Metadata,
		Columns: []storage.Column{
			{Name: "uri", Kind: vector.KindString},
			{Name: "record_id", Kind: vector.KindInt64},
			{Name: "start_time", Kind: vector.KindTime},
			{Name: "end_time", Kind: vector.KindTime},
			{Name: "rows", Kind: vector.KindInt64},
		},
	}
	data = catalog.TableDef{
		Name: DataTable,
		Kind: catalog.ActualData,
		Columns: []storage.Column{
			{Name: "uri", Kind: vector.KindString},
			{Name: "record_id", Kind: vector.KindInt64},
			{Name: "reading_time", Kind: vector.KindTime},
			{Name: "reading", Kind: vector.KindFloat64},
		},
	}
	return file, record, data
}

// URIColumn implements catalog.FormatAdapter.
func (a *Adapter) URIColumn() string { return "uri" }

// RecordIDColumn implements catalog.FormatAdapter.
func (a *Adapter) RecordIDColumn() string { return "record_id" }

// DataSpanColumn implements catalog.FormatAdapter.
func (a *Adapter) DataSpanColumn() string { return "reading_time" }

// RecordSpan implements catalog.FormatAdapter.
func (a *Adapter) RecordSpan(rm catalog.RecordMeta) (int64, int64, bool) {
	if len(rm.Values) < 4 {
		return 0, 0, false
	}
	return rm.Values[2].I, rm.Values[3].I, true
}

// FileSizeColumn, RowCountColumn and RecordSpanColumns implement the
// engine's EstimateHints extension.
func (a *Adapter) FileSizeColumn() string              { return "size_bytes" }
func (a *Adapter) RowCountColumn() string              { return "rows" }
func (a *Adapter) RecordSpanColumns() (string, string) { return "start_time", "end_time" }

// header is the parsed '#key: value' preamble.
type header struct {
	sensor, site, quantity string
	periodNS               int64
}

// segmentMeta is one '#segment' section discovered by the cheap scan.
type segmentMeta struct {
	id    int64
	start int64
	rows  int64
}

// scanFile reads the file's structure: header and segment boundaries.
// When wantData is false the reading values are never parsed — the
// metadata fast path.
func scanFile(path string, wantData bool) (header, []segmentMeta, [][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return header{}, nil, nil, err
	}
	defer f.Close()
	var h header
	h.periodNS = int64(time.Second)
	var segs []segmentMeta
	var data [][]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#segment") {
			parts := strings.Fields(line)
			if len(parts) != 3 {
				return h, nil, nil, fmt.Errorf("csvfmt: %s:%d: malformed segment header %q", path, lineNo, line)
			}
			id, err1 := strconv.ParseInt(parts[1], 10, 64)
			start, err2 := strconv.ParseInt(parts[2], 10, 64)
			if err1 != nil || err2 != nil {
				return h, nil, nil, fmt.Errorf("csvfmt: %s:%d: bad segment numbers", path, lineNo)
			}
			segs = append(segs, segmentMeta{id: id, start: start})
			if wantData {
				data = append(data, nil)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			key, val, ok := strings.Cut(line[1:], ":")
			if !ok {
				return h, nil, nil, fmt.Errorf("csvfmt: %s:%d: malformed header %q", path, lineNo, line)
			}
			val = strings.TrimSpace(val)
			switch strings.TrimSpace(key) {
			case "sensor":
				h.sensor = val
			case "site":
				h.site = val
			case "quantity":
				h.quantity = val
			case "period_ns":
				p, err := strconv.ParseInt(val, 10, 64)
				if err != nil || p <= 0 {
					return h, nil, nil, fmt.Errorf("csvfmt: %s:%d: bad period %q", path, lineNo, val)
				}
				h.periodNS = p
			}
			continue
		}
		// A reading line.
		if len(segs) == 0 {
			return h, nil, nil, fmt.Errorf("csvfmt: %s:%d: reading before any #segment", path, lineNo)
		}
		segs[len(segs)-1].rows++
		if wantData {
			v, err := strconv.ParseFloat(line, 64)
			if err != nil {
				return h, nil, nil, fmt.Errorf("csvfmt: %s:%d: bad reading %q", path, lineNo, line)
			}
			data[len(data)-1] = append(data[len(data)-1], v)
		}
	}
	if err := sc.Err(); err != nil {
		return h, nil, nil, err
	}
	return h, segs, data, nil
}

func (a *Adapter) recordMeta(uri string, s segmentMeta, periodNS int64) catalog.RecordMeta {
	end := s.start
	if s.rows > 1 {
		end = s.start + (s.rows-1)*periodNS
	}
	return catalog.RecordMeta{
		URI:      uri,
		RecordID: s.id,
		Values: []vector.Value{
			vector.Str(uri),
			vector.Int64(s.id),
			vector.Time(s.start),
			vector.Time(end),
			vector.Int64(s.rows),
		},
	}
}

// ExtractMetadata implements catalog.FormatAdapter (structure-only scan).
func (a *Adapter) ExtractMetadata(path, uri string) (catalog.FileMeta, []catalog.RecordMeta, error) {
	h, segs, _, err := scanFile(path, false)
	if err != nil {
		return catalog.FileMeta{}, nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return catalog.FileMeta{}, nil, err
	}
	fm := catalog.FileMeta{
		URI: uri,
		Values: []vector.Value{
			vector.Str(uri),
			vector.Str(h.sensor),
			vector.Str(h.site),
			vector.Str(h.quantity),
			vector.Int64(st.Size()),
			vector.Int64(int64(len(segs))),
		},
	}
	rms := make([]catalog.RecordMeta, len(segs))
	for i, s := range segs {
		rms[i] = a.recordMeta(uri, s, h.periodNS)
	}
	return fm, rms, nil
}

// MountStream implements catalog.FormatAdapter. A first structure-only
// pass (the same cheap scan metadata extraction uses) fixes the header
// and segment boundaries; the second pass then parses reading values
// segment by segment, skipping the value parse entirely for segments
// rejected by keep — a tighter σ∘mount than the materializing path ever
// had — and yields segment-aligned batches as it goes.
func (a *Adapter) MountStream(path, uri string, keep func(catalog.RecordMeta) bool, batchRows int, emit func(*vector.Batch) error) error {
	if batchRows <= 0 {
		batchRows = vector.DefaultBatchSize
	}
	h, segs, _, err := scanFile(path, false)
	if err != nil {
		return err
	}
	wanted := make([]bool, len(segs))
	for i, s := range segs {
		wanted[i] = keep == nil || keep(a.recordMeta(uri, s, h.periodNS))
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var uris []string
	var ids, times []int64
	var vals []float64
	flush := func() error {
		if len(uris) == 0 {
			return nil
		}
		b := vector.NewBatch(
			vector.FromString(uris),
			vector.FromInt64(ids),
			vector.FromTime(times),
			vector.FromFloat64(vals),
		)
		uris, ids, times, vals = nil, nil, nil, nil
		return emit(b)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	seg := -1       // index into segs of the segment being read
	row := int64(0) // reading index within the segment
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "#segment") {
				seg++
				row = 0
				if seg >= len(segs) {
					return fmt.Errorf("csvfmt: %s:%d: segment appeared after structure scan", path, lineNo)
				}
				// Segment alignment: flush before a segment that would
				// overflow; one oversized segment goes out alone.
				if len(uris) > 0 && int64(len(uris))+segs[seg].rows > int64(batchRows) {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			continue
		}
		if seg < 0 {
			return fmt.Errorf("csvfmt: %s:%d: reading before any #segment", path, lineNo)
		}
		if !wanted[seg] {
			continue // σ∘mount: rejected segments are never parsed
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return fmt.Errorf("csvfmt: %s:%d: bad reading %q", path, lineNo, line)
		}
		uris = append(uris, uri)
		ids = append(ids, segs[seg].id)
		times = append(times, segs[seg].start+row*h.periodNS)
		vals = append(vals, v)
		row++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}

// WriteFile generates a sensor CSV file; used by tests, examples and the
// generalization benchmark.
func WriteFile(path, sensor, site, quantity string, periodNS int64, segments map[int64][]float64, starts map[int64]int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "#sensor: %s\n#site: %s\n#quantity: %s\n#period_ns: %d\n", sensor, site, quantity, periodNS)
	// Deterministic segment order.
	var ids []int64
	for id := range segments {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		fmt.Fprintf(w, "#segment %d %d\n", id, starts[id])
		for _, v := range segments[id] {
			fmt.Fprintf(w, "%g\n", v)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
