package core

import (
	"repro/internal/derived"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/vector"
)

// tryDerivedAnswer attempts to answer the query from derived metadata
// alone (paper §5, "Extending metadata"): when the query is a global
// aggregate of the data table's value column whose only actual-data
// restriction is a span window, and every record of interest has already
// been summarized by an earlier mount, the answer is computed without
// ingesting anything.
func (e *Engine) tryDerivedAnswer(p *Prepared, bp *Breakpoint) (*Result, bool) {
	if !p.HasStages || bp.qfResult == nil || len(p.actuals) != 1 {
		return nil, false
	}
	actual := p.actuals[0]
	_, _, dataDef := e.adapter.Tables()
	if e.dataValCol < 0 {
		return nil, false
	}
	valName := actual.Binding + "." + dataDef.Columns[e.dataValCol].Name
	spanName := actual.Binding + "." + e.adapter.DataSpanColumn()

	// The actual-data predicate may restrict only the span column.
	if actual.Pred != nil && !predOnlyReferences(actual.Pred, spanName) {
		return nil, false
	}

	// Plan shape: Project(Aggregate(join...)) with one aggregate over the
	// value column and no GROUP BY.
	proj, agg, _ := matchGlobalAggOverJoin(p.Dec.Qs)
	if agg == nil || len(agg.Aggs) != 1 {
		return nil, false
	}
	spec := agg.Aggs[0]
	if spec.Distinct {
		return nil, false
	}
	var argName string
	if spec.Arg != nil {
		col, ok := spec.Arg.(*expr.Col)
		if !ok {
			return nil, false
		}
		argName = col.Name
	}
	if spec.Func != plan.AggCount && argName != valName {
		return nil, false
	}
	if spec.Func == plan.AggCount && spec.Arg != nil && argName != valName {
		return nil, false
	}

	// The join must pair D rows with Qf rows on both uri and record id, so
	// each record of interest appears exactly once in the Qf result.
	rc, _, ok := e.qfRecordColumns(p, bp, actual.Binding)
	if !ok {
		return nil, false
	}
	var refs []derived.RecordRef
	for _, b := range bp.qfResult.Batches {
		uris := b.Cols[rc.uri].Strings()
		rids := b.Cols[rc.rid].Int64s()
		los := b.Cols[rc.lo].Int64s()
		his := b.Cols[rc.hi].Int64s()
		for i := range uris {
			refs = append(refs, derived.RecordRef{
				URI: uris[i], RecordID: rids[i], SpanLo: los[i], SpanHi: his[i],
			})
		}
	}
	val, ok := e.derived.Answer(refs, bp.spanLo, bp.spanHi, spec.Func)
	if !ok {
		return nil, false
	}

	// Assemble the single-row result with the projected schema.
	outSchema := p.Dec.Qs.Schema()
	if proj != nil {
		outSchema = proj.Schema()
	}
	if len(outSchema) != 1 {
		return nil, false
	}
	col := vector.New(outSchema[0].Kind, 1)
	switch outSchema[0].Kind {
	case vector.KindFloat64:
		col.AppendFloat64(val.AsFloat())
	case vector.KindInt64:
		col.AppendInt64(val.AsInt())
	case vector.KindTime:
		col.AppendInt64(val.AsInt())
	default:
		return nil, false
	}
	mat := &exec.Materialized{Schema: outSchema, Batches: []*vector.Batch{vector.NewBatch(col)}}
	return &Result{Columns: columnNames(outSchema), Mat: mat}, true
}

// predOnlyReferences reports whether every column reference in pred is
// the named column.
func predOnlyReferences(pred expr.Expr, name string) bool {
	ok := true
	pred.Walk(func(x expr.Expr) {
		if c, isCol := x.(*expr.Col); isCol && c.Name != name {
			ok = false
		}
	})
	return ok
}

// matchGlobalAggOverJoin is like matchGlobalAggOverUnion but before rule
// (1) has run: the aggregate sits over the join of the (not yet
// expanded) actual scan with the result-scan.
func matchGlobalAggOverJoin(root plan.Node) (*plan.Project, *plan.Aggregate, plan.Node) {
	var proj *plan.Project
	n := root
	if p, ok := n.(*plan.Project); ok {
		proj = p
		n = p.Child
	}
	agg, ok := n.(*plan.Aggregate)
	if !ok || len(agg.GroupBy) > 0 {
		return nil, nil, nil
	}
	return proj, agg, agg.Child
}
