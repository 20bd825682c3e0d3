package exec

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/mountsvc"
	"repro/internal/plan"
	"repro/internal/vector"
)

// mountOp performs ALi for one file: a thin cursor over the engine's
// shared mount service. The service owns extraction (single-flight
// across queries, streaming, budget-gated); the operator owns what is
// query-specific — evaluating the fused σ∘mount predicate on every
// record batch as it arrives, and tuple-granular cache retention of the
// rows that survived it. Mounted data is a dangling partial table: it
// vanishes with the query unless the cache policy retains it.
//
// A cache-scan is a mountOp too: it first serves copy-on-write shares
// of the ingestion cache's entry (no copy; the fused predicate applies
// the same way), and if the entry was evicted between planning and
// execution it records the fallback and mounts the file afresh.
type mountOp struct {
	node    *plan.Mount
	env     *Env
	adapter catalog.FormatAdapter
	schema  []plan.ColInfo

	cur       mountsvc.Cursor
	started   bool
	finished  bool
	cacheScan bool

	// Tuple-granular retention: shares of the filtered rows, the span
	// they cover and the fill's cache ticket, put only after the stream
	// fully drains (a partial entry would serve wrong answers to later
	// queries).
	retaining  bool
	retain     []*vector.Batch
	retainSpan cache.Span
	retainGen  uint64
}

func newMount(n *plan.Mount, env *Env) (*mountOp, error) {
	ad, ok := env.Adapters.Get(n.Adapter)
	if !ok {
		return nil, fmt.Errorf("exec: mount with unknown adapter %s", n.Adapter)
	}
	return &mountOp{node: n, env: env, adapter: ad, schema: n.Schema()}, nil
}

// Schema implements Operator.
func (m *mountOp) Schema() []plan.ColInfo { return m.schema }

// start attaches the cursor to the cache entry of a cache-scan, or to
// the mount service.
func (m *mountOp) start() error {
	span := cache.FullSpan()
	if m.node.Pred != nil {
		if sp, ok := predSpan(m.node.Pred, m.node.Binding, m.adapter.DataSpanColumn()); ok {
			span = cache.Span{Lo: sp.Lo, Hi: sp.Hi}
		}
	}
	if m.cacheScan {
		cached, ok := m.env.Cache.Get(m.node.URI, span)
		m.env.addMountStats(func(ms *MountStats) {
			if ok {
				ms.CacheHits++
			} else {
				// Evicted since rule (1) decided f ∈ C: recorded so
				// benchmark numbers can't misattribute cache efficacy.
				ms.CacheFallbacks++
			}
		})
		if ok {
			m.cur = mountsvc.NewStaticCursor(cached, m.env.batchSize())
			return nil
		}
	}
	if m.env.Cache != nil &&
		m.env.Cache.Config().Policy != cache.NeverCache &&
		m.env.Cache.Config().Granularity == cache.TupleGranular {
		m.retaining = true
		m.retainSpan = span
		m.retainGen = m.env.Cache.Gen()
	}
	env := m.env
	cur, err := env.service().Mount(mountsvc.Request{
		URI:       m.node.URI,
		Ctx:       env.Ctx,
		Session:   env.Session,
		Adapter:   m.adapter,
		Span:      span,
		BatchRows: env.batchSize(),
		EstBytes:  m.node.EstBytes,
		Observe: func(d mountsvc.Delta) {
			env.addMountStats(func(ms *MountStats) {
				switch {
				case d.FileMounted:
					ms.FilesMounted++
					ms.BytesRead += d.BytesRead
					ms.RecordsPruned += d.RecordsPruned
					ms.RecordsMounted += d.RecordsMounted
					ms.AdmissionBytesSaved += d.AdmissionSaved
				case d.SingleFlight:
					ms.SingleFlightHits++
				case d.FromCache:
					ms.CacheHits++
				}
			})
		},
	})
	if err != nil {
		return fmt.Errorf("exec: mount %s: %w", m.node.URI, err)
	}
	m.cur = cur
	return nil
}

// Next implements Operator: pull a record batch from the service, apply
// the fused predicate, emit the survivors.
func (m *mountOp) Next() (*vector.Batch, error) {
	if !m.started {
		if err := m.start(); err != nil {
			return nil, err
		}
		m.started = true
	}
	for {
		if m.finished {
			return nil, nil
		}
		b, err := m.cur.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			m.finished = true
			if m.retaining {
				m.env.Cache.Put(m.node.URI, m.retain, m.retainSpan, m.retainGen)
				m.retaining, m.retain = false, nil
			}
			return nil, nil
		}
		// b is a copy-on-write share of the flight's replay buffer: it
		// can be emitted downstream as-is. A client mutating this query's
		// result materializes a private copy and can never corrupt
		// another query riding the same extraction.
		filtered := b
		if m.node.Pred != nil {
			pv, err := m.node.Pred.Eval(b)
			if err != nil {
				return nil, err
			}
			sel := vector.SelFromBools(pv)
			if len(sel) != b.Len() {
				filtered = b.Gather(sel)
			}
		}
		if m.retaining && filtered.Len() > 0 {
			// The retention buffer is a second owner of these rows: it
			// keeps its own handle so downstream mutations of the emitted
			// batch cannot reach the future cache entry.
			m.retain = append(m.retain, filtered.Share())
		}
		if filtered.Len() == 0 {
			continue
		}
		return filtered, nil
	}
}

// Close implements Operator. A stream closed before draining skips
// tuple-granular retention (the entry would be incomplete) and detaches
// from the flight without affecting other queries riding it.
func (m *mountOp) Close() error {
	m.retaining, m.retain = false, nil
	if m.cur != nil {
		return m.cur.Close()
	}
	return nil
}

func newCacheScan(n *plan.CacheScan, env *Env) (Operator, error) {
	if env.Cache == nil {
		return nil, fmt.Errorf("exec: cache-scan of %s without a cache", n.URI)
	}
	m, err := newMount(&plan.Mount{
		URI: n.URI, Adapter: n.Adapter, Binding: n.Binding, Def: n.Def,
		Pred: n.Pred, EstBytes: n.EstBytes,
	}, env)
	if err != nil {
		return nil, err
	}
	m.cacheScan = true
	return m, nil
}

// PredSpan exposes span extraction to the engine layer: it returns the
// inclusive [lo, hi] restriction a conjunctive predicate places on
// binding.spanCol, with ok=false when unconstrained.
func PredSpan(pred expr.Expr, binding, spanCol string) (lo, hi int64, ok bool) {
	if pred == nil {
		return 0, 0, false
	}
	sp, found := predSpan(pred, binding, spanCol)
	return sp.Lo, sp.Hi, found
}

// predBounds is a half-open numeric restriction on one column extracted
// from a conjunction.
type predBounds struct {
	Lo, Hi int64
}

// predSpan extracts the [Lo, Hi] bounds that a conjunctive predicate
// places on the named span column (e.g. D.sample_time). It returns
// ok=false when the predicate does not constrain the column.
func predSpan(pred expr.Expr, binding, spanCol string) (predBounds, bool) {
	if spanCol == "" {
		return predBounds{}, false
	}
	qualified := binding + "." + spanCol
	sp := predBounds{Lo: math.MinInt64, Hi: math.MaxInt64}
	found := false
	for _, conj := range expr.SplitAnd(pred) {
		cmp, ok := conj.(*expr.Compare)
		if !ok {
			continue
		}
		col, colOnLeft := cmp.L.(*expr.Col)
		if !colOnLeft {
			if rc, ok := cmp.R.(*expr.Col); ok {
				col = rc
			} else {
				continue
			}
		}
		if col == nil || (col.Name != qualified && col.Name != spanCol) {
			continue
		}
		var c *expr.Const
		if colOnLeft {
			c, ok = cmp.R.(*expr.Const)
		} else {
			c, ok = cmp.L.(*expr.Const)
		}
		if !ok || !(c.Val.Kind == vector.KindInt64 || c.Val.Kind == vector.KindTime) {
			continue
		}
		op := cmp.Op
		if !colOnLeft {
			op = flipOp(op)
		}
		v := c.Val.I
		switch op {
		case expr.Gt:
			if v+1 > sp.Lo {
				sp.Lo = v + 1
			}
			found = true
		case expr.Ge:
			if v > sp.Lo {
				sp.Lo = v
			}
			found = true
		case expr.Lt:
			if v-1 < sp.Hi {
				sp.Hi = v - 1
			}
			found = true
		case expr.Le:
			if v < sp.Hi {
				sp.Hi = v
			}
			found = true
		case expr.Eq:
			if v > sp.Lo {
				sp.Lo = v
			}
			if v < sp.Hi {
				sp.Hi = v
			}
			found = true
		}
	}
	return sp, found
}

func flipOp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.Lt:
		return expr.Gt
	case expr.Le:
		return expr.Ge
	case expr.Gt:
		return expr.Lt
	case expr.Ge:
		return expr.Le
	}
	return op
}
