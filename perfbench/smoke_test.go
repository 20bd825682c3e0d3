package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// listed returns the definitions the JSON result line carries.
func listed(defs []metricDef) []metricDef {
	var out []metricDef
	for _, d := range defs {
		if !d.printOnly {
			out = append(out, d)
		}
	}
	return out
}

// TestCatalogMatchesBenchmarkFile keeps BENCHMARK.json and the metric
// and workload definitions of this program in step.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, c := range []struct {
		what string
		file []benchMetric
		defs []metricDef
	}{{"end_to_end", f.EndToEnd, listed(endToEnd)}, {"per_layer", f.PerLayer, listed(perLayer)}} {
		if len(c.file) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.what, len(c.file), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			m := c.file[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, the program %s %s %s",
					c.what, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if (m.Bound != nil) != (c.what == "end_to_end") {
				t.Errorf("%s %s: bound presence is wrong", c.what, m.Name)
			}
		}
	}
}

// TestSmokeEveryWorkload runs each workload briefly at the tiny scale,
// untraced and traced, and checks that every metric BENCHMARK.json names
// is emitted with its unit and that no query failed or answered wrongly.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	build := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			res, err := benchmark(config{workload: w.name, seed: 1, seconds: 0.5, trace: trace, build: build, scale: "tiny"}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or with unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
	// Every engine directory is removed once a run ends.
	entries, err := os.ReadDir(filepath.Join(build, "work"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("work directory left behind: %s", e.Name())
	}
}
