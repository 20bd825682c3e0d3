package exec

import (
	"sort"

	"repro/internal/mountsvc"
	"repro/internal/plan"
	"repro/internal/vector"
)

// sortOp materializes its input and emits it ordered by the sort keys,
// chunked to the environment's batch size like every other operator. It
// is the engine's one in-place mutator: the materialized input is
// permuted via Batch.Permute, which reorders exclusively owned storage
// without allocating and transparently materializes a private copy when
// the input batches are copy-on-write shares (cache entries, replayed
// results, flight fan-out).
type sortOp struct {
	child Operator
	keys  []plan.SortKey
	env   *Env
	out   mountsvc.Cursor // the sorted rows, set once the input is drained
}

// Schema implements Operator.
func (s *sortOp) Schema() []plan.ColInfo { return s.child.Schema() }

// Next implements Operator.
func (s *sortOp) Next() (*vector.Batch, error) {
	if s.out == nil {
		mat := &Materialized{Schema: s.child.Schema()}
		for {
			b, err := s.child.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			if b.Len() > 0 {
				mat.Batches = append(mat.Batches, b)
			}
		}
		all := mat.Flatten()
		idx := make([]int, all.Len())
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for _, k := range s.keys {
				c := vector.Compare(all.Cols[k.Index].Get(idx[a]), all.Cols[k.Index].Get(idx[b]))
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		all.Permute(idx)
		s.out = mountsvc.NewStaticCursor([]*vector.Batch{all}, s.env.batchSize())
	}
	return s.out.Next()
}

// Close implements Operator.
func (s *sortOp) Close() error { return s.child.Close() }
