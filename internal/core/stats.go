package core

import (
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/vector"
)

// This file wires the statistics-free planning layer (internal/stats)
// into the two-stage pipeline. Between Stage 1 and Stage 2 the frozen
// Qf result is a perfect, free cardinality oracle: exact per-record row
// counts and spans with zero statistics collection. The engine uses it
// to prune files from the mount list before the mount service sees
// them, order Stage-2 join chains greedily, pick hash-join build sides,
// and size admission requests honestly. Everything is gated by
// Options.StatsPlanning and guaranteed not to change results — only
// how much work producing them costs.

// StatsPlanningMode gates the statistics-free planner.
type StatsPlanningMode int

// StatsPlanning settings. The zero value is ON: the planner only ever
// skips provably useless work, so there is no reason to opt in.
const (
	// StatsPlanningOn enables Qf-fed pruning, join ordering, build-side
	// selection and honest admission sizing (the default).
	StatsPlanningOn StatsPlanningMode = iota
	// StatsPlanningOff disables the oracle entirely; Stage 2 plans and
	// admits exactly as it would have before the planner existed. The
	// differential tests pin byte-identical results across both modes.
	StatsPlanningOff
)

func (m StatsPlanningMode) String() string {
	if m == StatsPlanningOff {
		return "off"
	}
	return "on"
}

func (e *Engine) statsPlanningOn() bool {
	return e.opts.StatsPlanning == StatsPlanningOn
}

// qfRecordCols are the positions, in the frozen Qf result, of the
// columns identifying each record of interest: its uri, its record id and
// the bounds of its data span.
type qfRecordCols struct{ uri, rid, lo, hi int }

// qfRecordColumns resolves the record-identifying columns the query's
// Stage-2 join on the actual scan pairs with the Qf result. ok is false
// when the adapter gives no EstimateHints or a column is missing.
func (e *Engine) qfRecordColumns(p *Prepared, bp *Breakpoint, binding string) (qfRecordCols, EstimateHints, bool) {
	hints, ok := e.adapter.(EstimateHints)
	if !ok {
		return qfRecordCols{}, nil, false
	}
	uriCol, err := plan.CollectURIColumn(p.Dec.Qs, p.Dec.Name, binding, e.adapter.URIColumn())
	if err != nil {
		return qfRecordCols{}, nil, false
	}
	ridCol, err := plan.CollectURIColumn(p.Dec.Qs, p.Dec.Name, binding, e.adapter.RecordIDColumn())
	if err != nil {
		return qfRecordCols{}, nil, false
	}
	loName, hiName := hints.RecordSpanColumns()
	rc := qfRecordCols{
		uri: bp.qfResult.Column(uriCol),
		rid: bp.qfResult.Column(ridCol),
		lo:  bp.qfResult.Column(loName),
		hi:  bp.qfResult.Column(hiName),
	}
	if rc.uri < 0 || rc.rid < 0 || rc.lo < 0 || rc.hi < 0 {
		return qfRecordCols{}, nil, false
	}
	return rc, hints, true
}

// buildOracle harvests the frozen Qf result into a stats.Oracle. It
// returns nil when the metadata result doesn't carry record-granular
// columns (uri, record id, span bounds, row counts) — planning then
// proceeds exactly as with the oracle off.
func (e *Engine) buildOracle(p *Prepared, bp *Breakpoint) *stats.Oracle {
	if !p.HasStages || bp.qfResult == nil || len(p.actuals) == 0 {
		return nil
	}
	actual := p.actuals[0]
	rc, hints, ok := e.qfRecordColumns(p, bp, actual.Binding)
	if !ok {
		return nil
	}
	rowsIdx := bp.qfResult.Column(hints.RowCountColumn())
	sizeIdx := bp.qfResult.Column(hints.FileSizeColumn()) // optional
	if rowsIdx < 0 {
		return nil
	}

	o := stats.New(p.Dec.Name, int64(bp.qfResult.Rows()), e.derived)
	for _, b := range bp.qfResult.Batches {
		uris := b.Cols[rc.uri].Strings()
		rids := b.Cols[rc.rid].Int64s()
		los := b.Cols[rc.lo].Int64s()
		his := b.Cols[rc.hi].Int64s()
		rows := b.Cols[rowsIdx].Int64s()
		var sizes []int64
		if sizeIdx >= 0 && b.Cols[sizeIdx].Kind() == vector.KindInt64 {
			sizes = b.Cols[sizeIdx].Int64s()
		}
		for i := range uris {
			var size int64
			if sizes != nil {
				size = sizes[i]
			}
			o.AddRecord(uris[i], size, stats.RecordStats{
				RecordID: rids[i], Rows: rows[i], SpanLo: los[i], SpanHi: his[i],
			})
		}
	}

	// The residual predicate Stage 2 will apply at every mount: interval
	// bounds over the span (time) and value (float) columns license the
	// prune rules.
	_, _, dataDef := e.adapter.Tables()
	spanName := actual.Binding + "." + e.adapter.DataSpanColumn()
	valName := ""
	if e.dataValCol >= 0 {
		valName = actual.Binding + "." + dataDef.Columns[e.dataValCol].Name
	}
	o.SetResidual(actual.Pred, spanName, valName)
	return o
}

// orderStage2Joins applies the oracle's join-chain rewrites to the
// rule-(1)-expanded Stage-2 plan. Order-insensitive consumers (global
// aggregates without float-order-sensitive functions) get the full
// greedy smallest-first reorder; everything else gets only the
// always-safe empty-chain early termination, preserving row order and
// therefore byte-identical output.
func (b *Breakpoint) orderStage2Joins(root plan.Node) plan.Node {
	if b.oracle == nil {
		return root
	}
	var out plan.Node
	var flips int
	if orderInsensitiveOutput(root) {
		out, flips = plan.OrderJoins(root, b.oracle.NodeRows)
	} else {
		out, flips = plan.PruneEmptyJoins(root, b.oracle.NodeRows)
	}
	b.joinFlips += flips
	return out
}

// orderInsensitiveOutput reports whether the plan's final answer cannot
// depend on input row order: a global aggregate (no GROUP BY) whose
// every function is order-insensitive over floats too — COUNT, MIN,
// MAX always; SUM only over int/time arguments (float addition is not
// associative); AVG never.
func orderInsensitiveOutput(root plan.Node) bool {
	n := root
	if p, ok := n.(*plan.Project); ok {
		n = p.Child
	}
	agg, ok := n.(*plan.Aggregate)
	if !ok || len(agg.GroupBy) > 0 {
		return false
	}
	for _, spec := range agg.Aggs {
		switch spec.Func {
		case plan.AggCount, plan.AggMin, plan.AggMax:
		case plan.AggSum:
			if spec.Arg == nil || spec.Arg.Kind() == vector.KindFloat64 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// stage2Mounts folds the breakpoint's planner counters into the
// execution env's mount statistics and records them on the engine.
func (b *Breakpoint) stage2Mounts(env *exec.Env) exec.MountStats {
	ms := env.MountsSnapshot()
	ms.PrunedFiles += b.prunedFiles
	ms.PrunedRecords += b.prunedRecords
	ms.BytesNotMounted += b.bytesNotMounted
	ms.JoinOrderFlips += b.joinFlips
	b.pq.eng.notePlannerStats(ms)
	return ms
}

// PlannerStats is the engine-lifetime snapshot of statistics-free
// planner activity, for cmd/explorer's \stats display.
type PlannerStats struct {
	PrunedFiles         int64
	PrunedRecords       int64
	BytesNotMounted     int64
	JoinOrderFlips      int64
	JoinBuildFlips      int64
	AdmissionBytesSaved int64
}

// PlannerStats returns planner counters accumulated across every query
// of the engine (admission savings come from the shared mount service).
func (e *Engine) PlannerStats() PlannerStats {
	return PlannerStats{
		PrunedFiles:         e.statPrunedFiles.Load(),
		PrunedRecords:       e.statPrunedRecords.Load(),
		BytesNotMounted:     e.statBytesNotMounted.Load(),
		JoinOrderFlips:      e.statJoinOrderFlips.Load(),
		JoinBuildFlips:      e.statJoinBuildFlips.Load(),
		AdmissionBytesSaved: e.mounts.Stats().AdmissionBytesSaved,
	}
}

// notePlannerStats accumulates one stage-2 execution's planner counters
// into the engine-lifetime totals.
func (e *Engine) notePlannerStats(ms exec.MountStats) {
	e.statPrunedFiles.Add(int64(ms.PrunedFiles))
	e.statPrunedRecords.Add(int64(ms.PrunedRecords))
	e.statBytesNotMounted.Add(ms.BytesNotMounted)
	e.statJoinOrderFlips.Add(int64(ms.JoinOrderFlips))
	e.statJoinBuildFlips.Add(int64(ms.JoinBuildFlips))
}
