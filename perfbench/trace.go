package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/repo"
	"repro/internal/vector"
)

// span is one timed interval around a call into a layer. Spans of one
// query share Query; Parent is the ID of the enclosing span, -1 at the
// root. Derived spans are placed from the engine's own Result.Stats
// split of a QueryAs call rather than timed around a call.
type span struct {
	Query   int              `json:"query"`
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Name    string           `json:"name"`
	StartUS float64          `json:"start_us"`
	EndUS   float64          `json:"end_us"`
	Derived bool             `json:"derived,omitempty"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spansOf turns a traced run's records into span trees. The root is the
// client's call; its children are plan.prepare (PrepareAs), core.stage1
// (Stage1) and exec.stage2 (Proceed). On the QueryAs flow the children
// are derived from Result.Stats, and a subsumption serve adds
// resultcache.refilter under core.stage1.
func spansOf(r *run, f flow) []span {
	var out []span
	for q := range r.records {
		rc := &r.records[q]
		root := span{Query: q, ID: 0, Parent: -1, Name: "client.query",
			StartUS: usOf(rc.start), EndUS: usOf(rc.end),
			Attrs: map[string]int64{"pool_index": int64(rc.idx), "client": int64(rc.client),
				"flights": rc.flights, "pages_read": rc.pagesRead}}
		if rc.err != nil {
			root.Attrs["failed"] = 1
		}
		out = append(out, root)
		if rc.err != nil {
			continue
		}
		derived := f == flowQueryAs
		at := root.StartUS
		for i, phase := range []struct {
			name string
			d    time.Duration
		}{{"plan.prepare", rc.prepare}, {"core.stage1", rc.stage1}, {"exec.stage2", rc.stage2}} {
			s := span{Query: q, ID: i + 1, Parent: 0, Name: phase.name,
				StartUS: at, EndUS: at + usOf(phase.d), Derived: derived}
			out = append(out, s)
			at = s.EndUS
			if phase.name == "core.stage1" && rc.stats.RefilterWall > 0 {
				out = append(out, span{Query: q, ID: 4, Parent: i + 1, Name: "resultcache.refilter",
					StartUS: s.StartUS, EndUS: s.StartUS + usOf(rc.stats.RefilterWall), Derived: true})
			}
		}
	}
	return out
}

// selfTime is one layer's time with its child spans' time taken out.
type selfTime struct {
	name    string
	spans   int
	selfUS  float64
	totalUS float64
}

// selfTimes computes each span name's self time: its duration minus the
// part of it its children cover (children of one span never overlap).
func selfTimes(spans []span) []selfTime {
	type key struct{ q, id int }
	childUS := map[key]float64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			childUS[key{s.Query, s.Parent}] += s.dur()
		}
	}
	by := map[string]*selfTime{}
	for _, s := range spans {
		t := by[s.Name]
		if t == nil {
			t = &selfTime{name: s.Name}
			by[s.Name] = t
		}
		t.spans++
		t.totalUS += s.dur()
		t.selfUS += max(s.dur()-childUS[key{s.Query, s.ID}], 0)
	}
	var out []selfTime
	for _, t := range by {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfUS > out[j].selfUS })
	return out
}

func printSelfTimes(w io.Writer, st []selfTime, queries int) {
	var all float64
	for _, t := range st {
		all += t.selfUS
	}
	fmt.Fprintf(w, "layer self time (span minus child spans) over %d traced queries\n", queries)
	fmt.Fprintf(w, "  %-22s %8s %14s %14s %8s\n", "span", "spans", "self us/query", "total us/query", "share")
	for _, t := range st {
		fmt.Fprintf(w, "  %-22s %8d %14.2f %14.2f %7.1f%%\n", t.name, t.spans,
			t.selfUS/float64(queries), t.totalUS/float64(queries), 100*ratio(t.selfUS, all))
	}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeProbe times the adapter's public MountStream over files and
// returns rows decoded per second. It reads each file whole, at least
// minRows rows in all, so the rate rests on enough work to be steady.
func decodeProbe(ad catalog.FormatAdapter, m *repo.Manifest, files []string, minRows int64) (float64, error) {
	if len(files) == 0 {
		return 0, nil
	}
	var rows int64
	var took time.Duration
	for i := 0; rows < minRows || i < len(files); i++ {
		uri := files[i%len(files)]
		start := time.Now()
		err := ad.MountStream(m.Path(uri), uri, nil, vector.DefaultBatchSize, func(b *vector.Batch) error {
			rows += int64(b.Len())
			return nil
		})
		took += time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("decode probe: %w", err)
		}
	}
	return float64(rows) / took.Seconds(), nil
}
