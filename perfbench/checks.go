package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/repo"
	"repro/internal/vector"
)

// checkAnswers compares every kept answer (one per distinct query and
// serve path) with a reference computed for the same SQL on a plain
// engine: ALi, both caches off, Parallelism 1. It returns the number of
// answers that differ or whose reference failed, with a description of
// the first few.
func checkAnswers(m *repo.Manifest, dir string, pool []query, runs []*run) (int, []string, error) {
	ref, _, err := openEngine(m, dir, core.Options{Mode: core.ModeALi, Parallelism: 1})
	if err != nil {
		return 0, nil, fmt.Errorf("reference engine: %w", err)
	}
	defer ref.Close()
	type kept struct {
		path served
		res  *core.Result
	}
	byIdx := map[int][]kept{}
	for _, r := range runs {
		for k, res := range r.answers {
			byIdx[k.idx] = append(byIdx[k.idx], kept{k.path, res})
		}
	}
	idxs := make([]int, 0, len(byIdx))
	for idx := range byIdx {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	var bad int
	var notes []string
	note := func(format string, args ...any) {
		bad++
		if len(notes) < 5 {
			notes = append(notes, fmt.Sprintf(format, args...))
		}
	}
	for _, idx := range idxs {
		q := pool[idx]
		want, err := ref.Query(q.sql)
		if err != nil {
			note("reference for pool query %d failed: %v", idx, err)
			continue
		}
		wantRows := answerRows(want, q.ordered)
		for _, a := range byIdx[idx] {
			if diff := compareRows(answerRows(a.res, q.ordered), wantRows); diff != "" {
				note("pool query %d (serve path %d): %s", idx, a.path, diff)
			}
		}
	}
	return bad, notes, nil
}

// answerRows returns a result's rows, sorted unless the query orders them:
// without ORDER BY the engine promises a multiset, not an order.
func answerRows(res *core.Result, ordered bool) [][]vector.Value {
	type keyed struct {
		key string
		row []vector.Value
	}
	var rows []keyed
	for _, b := range res.Mat.Batches {
		for i := 0; i < b.Len(); i++ {
			row := make([]vector.Value, len(b.Cols))
			for c, col := range b.Cols {
				row[c] = col.Get(i)
			}
			rows = append(rows, keyed{row: row})
		}
	}
	if !ordered {
		for i := range rows {
			rows[i].key = rowKey(rows[i].row)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	}
	out := make([][]vector.Value, len(rows))
	for i, r := range rows {
		out[i] = r.row
	}
	return out
}

func rowKey(row []vector.Value) string {
	var sb strings.Builder
	for _, v := range row {
		if v.Kind == vector.KindFloat64 {
			sb.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
		} else {
			sb.WriteString(v.String())
		}
		sb.WriteByte(0)
	}
	return sb.String()
}

// compareRows describes the first difference, or returns "". Floats
// agree within a relative 1e-9: parallel aggregation may sum in another
// order than the serial reference.
func compareRows(got, want [][]vector.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, reference has %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d has %d columns, reference has %d", i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			if !valuesClose(got[i][c], want[i][c]) {
				return fmt.Sprintf("row %d column %d is %v, reference has %v", i, c, got[i][c], want[i][c])
			}
		}
	}
	return ""
}

func valuesClose(a, b vector.Value) bool {
	if a.Kind == vector.KindFloat64 || b.Kind == vector.KindFloat64 {
		af, bf := a.AsFloat(), b.AsFloat()
		if af == bf {
			return true
		}
		return math.Abs(af-bf) <= 1e-9*math.Max(math.Max(math.Abs(af), math.Abs(bf)), 1)
	}
	return vector.Equal(a, b)
}

// checkQuiescent reports what an idle engine still holds: admitted or
// queued mount bytes, replay buffers, and flight spill files.
func checkQuiescent(e *core.Engine, spillDir string) []string {
	var bad []string
	st := e.MountService().Stats()
	if st.InFlightBytes != 0 {
		bad = append(bad, fmt.Sprintf("mount service holds %d in-flight bytes", st.InFlightBytes))
	}
	if st.ReplayBytes != 0 {
		bad = append(bad, fmt.Sprintf("mount service holds %d replay bytes", st.ReplayBytes))
	}
	if st.QueueDepth != 0 {
		bad = append(bad, fmt.Sprintf("admission queue depth is %d", st.QueueDepth))
	}
	gs := e.MountService().Gate().Stats()
	if gs.UsedBytes != 0 {
		bad = append(bad, fmt.Sprintf("admission gate holds %d bytes", gs.UsedBytes))
	}
	for name, ss := range gs.PerSession {
		if ss.HeldBytes != 0 {
			bad = append(bad, fmt.Sprintf("session %q holds %d admission bytes", name, ss.HeldBytes))
		}
	}
	if spillDir != "" {
		entries, err := os.ReadDir(filepath.Join(spillDir, "flights"))
		if err != nil && !os.IsNotExist(err) {
			bad = append(bad, fmt.Sprintf("list flight spill files: %v", err))
		}
		if len(entries) > 0 {
			bad = append(bad, fmt.Sprintf("%d flight spill files remain", len(entries)))
		}
	}
	return bad
}

// counts are the deterministic per-query counters two same-seed runs of
// a single-client workload must agree on exactly.
type counts struct {
	files, records, pruned, foi int
}

func countsOf(r *record) counts {
	st := r.stats
	return counts{
		files:   st.Mounts.FilesMounted,
		records: st.Mounts.RecordsMounted,
		pruned:  st.Mounts.PrunedFiles,
		foi:     st.FilesOfInterest,
	}
}

// checkDeterminism compares the first n queries of two same-seed runs
// and the modeled I/O of every set-up. Every counter and each query's
// modeled I/O must match exactly.
func checkDeterminism(a, b []record, n int, setupIO []float64) []string {
	var bad []string
	if slices.Min(setupIO) != slices.Max(setupIO) {
		bad = append(bad, fmt.Sprintf("setup modeled I/O differs between set-ups: %v", setupIO))
	}
	n = min(n, len(a), len(b))
	for i := range n {
		if a[i].idx != b[i].idx {
			return append(bad, fmt.Sprintf("query %d: streams diverge (pool %d vs %d)", i, a[i].idx, b[i].idx))
		}
		if ca, cb := countsOf(&a[i]), countsOf(&b[i]); ca != cb {
			return append(bad, fmt.Sprintf("query %d (pool %d): counters differ: %+v vs %+v", i, a[i].idx, ca, cb))
		}
		if ioA, ioB := a[i].stats.TotalIO, b[i].stats.TotalIO; ioA != ioB {
			return append(bad, fmt.Sprintf("query %d (pool %d): modeled I/O %v vs %v", i, a[i].idx, ioA, ioB))
		}
	}
	return bad
}
