// Command perfbench is the repository's benchmark. It runs one
// exploration workload closed loop against the engine's public API,
// checks every distinct answer against a reference engine, and prints
// the workload's metrics: end to end with -trace 0, per layer with
// -trace 1. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, one workload at a
// time or all of them in turn:
//
//	bash perfbench/run.sh --workload explore-cold --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/repo"
	"repro/internal/seismic"
)

// warmUp is how long the measured engine runs the workload before
// timing, so lazy state (heap sizing, the page cache, explore-session's
// caches) settles first. Its queries are checked like the rest.
const warmUp = time.Second

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	build    string // directory for fixtures, engine directories and span files
	scale    string // overrides the workload's dataset scale when set (smoke tests)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run, or all of them in turn: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.build = ".bench_build"
	var res *result
	var err error
	if cfg.workload == "all" {
		res, err = benchmarkAll(cfg, os.Stdout)
	} else {
		res, err = benchmark(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// bench is one invocation: a workload over its fixture, the engines it
// opened, and what the checks found.
type bench struct {
	cfg    config
	w      *workload
	m      *repo.Manifest
	pool   []query
	work   string // engine directories, removed at the end
	opened int
	// setupIO is the modeled I/O of every Open, which must repeat exactly.
	setupIO []float64
	// problems fail the run.
	problems []string
}

// engineRun is one engine opened for the workload and where it lives.
type engineRun struct {
	e        *core.Engine
	dir      string
	spillDir string
}

// open opens an engine with the workload's options on fresh directories.
func (b *bench) open() (engineRun, time.Duration, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("engine-%d", b.opened))
	b.opened++
	opts := b.w.options(filepath.Join(dir, "spill"))
	runtime.GC()
	e, took, err := openEngine(b.m, dir, opts)
	if err != nil {
		return engineRun{}, 0, err
	}
	b.setupIO = append(b.setupIO, e.Report().ModeledIO.Seconds())
	return engineRun{e: e, dir: dir, spillDir: opts.SpillDir}, took, nil
}

// finish checks that an idle engine holds nothing, then closes it and
// removes its directories.
func (b *bench) finish(er engineRun, label string) error {
	for _, p := range checkQuiescent(er.e, er.spillDir) {
		b.problems = append(b.problems, label+": not quiescent: "+p)
	}
	err := er.e.Close()
	if rmErr := os.RemoveAll(er.dir); err == nil {
		err = rmErr
	}
	return err
}

// setUp opens the workload's engine w.setups times for a steady median
// and keeps the last one open for the measured run.
func (b *bench) setUp() (setupResult, engineRun, error) {
	var s setupResult
	for i := range b.w.setups {
		er, took, err := b.open()
		if err != nil {
			return s, er, err
		}
		rep := er.e.Report()
		s.open = append(s.open, took.Seconds())
		s.metadata = append(s.metadata, ms(rep.Metadata.Wall))
		if rep.Eager != nil {
			s.load = append(s.load, ms(rep.Eager.LoadWall))
			s.index = append(s.index, ms(rep.Eager.IndexWall))
		}
		if i == b.w.setups-1 {
			return s, er, nil
		}
		if err := b.finish(er, "set-up"); err != nil {
			return s, er, err
		}
	}
	return s, engineRun{}, fmt.Errorf("workload %s has no set-up", b.w.name)
}

// checkDeterminism replays the start of client 0's stream on a fresh
// engine and compares its counters with the measured engine's.
func (b *bench) checkDeterminism(runs []*run) error {
	er, _, err := b.open()
	if err != nil {
		return err
	}
	other := replay(er.e, b.w, b.m, b.pool, b.cfg.seed, b.w.detQueries)
	if err := b.finish(er, "replay"); err != nil {
		return err
	}
	var first []record
	for _, r := range runs {
		first = append(first, r.records...)
	}
	for _, p := range checkDeterminism(first, other.records, b.w.detQueries, b.setupIO) {
		b.problems = append(b.problems, "determinism: "+p)
	}
	return nil
}

// benchmark runs one workload and writes its report to out.
func benchmark(cfg config, out io.Writer) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	sc := w.scale
	if cfg.scale != "" {
		if sc = benchutil.ScaleByName(cfg.scale); sc.Name != cfg.scale {
			return nil, fmt.Errorf("unknown scale %q", cfg.scale)
		}
	}
	m, err := benchutil.BuildRepo(filepath.Join(cfg.build, "fixtures"), sc)
	if err != nil {
		return nil, fmt.Errorf("build repository: %w", err)
	}
	b := &bench{cfg: cfg, w: w, m: m, pool: w.pool(m, rand.New(rand.NewSource(cfg.seed))),
		work: filepath.Join(cfg.build, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	defer os.RemoveAll(b.work)
	fmt.Fprintf(out, "perfbench: workload %s (%s)\n", w.name, w.why)
	fmt.Fprintf(out, "  scale %s: %d files, %.1f MB; %d distinct queries from seed %d; %d client(s), closed loop; %.1f s\n",
		sc.Name, len(m.Files), float64(m.Bytes)/mib, len(b.pool), cfg.seed, w.clients, cfg.seconds)

	s, eng, err := b.setUp()
	if err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	streams := newStreams(w, b.pool, cfg.seed)
	warm := timedRun(eng.e, w, m, b.pool, streams, min(warmUp, d), false)
	runs := []*run{warm}
	var timed, traced, after *run
	if !cfg.trace {
		timed = timedRun(eng.e, w, m, b.pool, streams, d, false)
		runs = append(runs, timed)
	} else {
		// The traced half runs between two untraced quarters on the same
		// engine, so a drift over the run cancels out of the tracing
		// overhead (the traced rate against the quarters' together).
		timed = timedRun(eng.e, w, m, b.pool, streams, d/4, false)
		traced = timedRun(eng.e, w, m, b.pool, streams, d/2, true)
		after = timedRun(eng.e, w, m, b.pool, streams, d/4, false)
		runs = append(runs, timed, traced, after)
	}
	if err := b.finish(eng, "measured engine"); err != nil {
		return nil, err
	}
	if w.detQueries > 0 {
		if err := b.checkDeterminism(runs); err != nil {
			return nil, err
		}
	}
	bad, notes, err := checkAnswers(m, filepath.Join(b.work, "reference"), b.pool, runs)
	if err != nil {
		return nil, err
	}
	for _, n := range notes {
		b.problems = append(b.problems, "answer: "+n)
	}

	res := &result{Failed: bad, Metrics: map[string]metricValue{}}
	for _, r := range runs {
		res.Attempted += len(r.records)
		for i := range r.records {
			if err := r.records[i].err; err != nil {
				res.Failed++
				b.problems = append(b.problems, fmt.Sprintf("query failed: %v", err))
			}
		}
	}
	res.Correct = res.Failed == 0 && len(b.problems) == 0

	e2e := endToEndValues(timed, s)
	e2e["setup_modeled_io_s"] = b.setupIO[0]
	e2e["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	fmt.Fprintf(out, "  set-up: %d opens, median %.4f s; warm-up: %d queries; run: %d queries in %.2f s, %d failed, %d file-change writes\n",
		len(s.open), median(s.open), len(warm.records), len(timed.records), timed.wall.Seconds(), res.Failed, timed.notifies)
	title := "end-to-end metrics (untraced run)"
	if cfg.trace {
		title = "end-to-end metrics (first untraced quarter)"
	}
	printMetrics(out, title, endToEnd, e2e, "")
	reported, defs := e2e, endToEnd
	if cfg.trace {
		if reported, err = b.reportLayers(out, traced, s, qps(timed, after)); err != nil {
			return nil, err
		}
		defs = perLayer
	}
	fmt.Fprintf(out, "checks: %d distinct answers compared with the reference engine", distinct(runs))
	if w.detQueries > 0 {
		fmt.Fprintf(out, "; determinism over %d queries", w.detQueries)
	}
	fmt.Fprintln(out)
	for i, p := range b.problems {
		if i == 20 {
			fmt.Fprintf(out, "  FAIL ... %d more\n", len(b.problems)-i)
			break
		}
		fmt.Fprintln(out, "  FAIL", p)
	}
	for _, d := range defs {
		if !d.printOnly {
			res.Metrics[d.name] = metricValue{Value: reported[d.name], Unit: d.unit}
		}
	}
	return res, nil
}

// benchmarkAll runs every workload in turn in this process. Its result
// line keys each metric by workload and name, as "workload:metric".
func benchmarkAll(cfg config, out io.Writer) (*result, error) {
	all := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		cfg.workload = w.name
		res, err := benchmark(cfg, out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Fprintln(out)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, v := range res.Metrics {
			all.Metrics[w.name+":"+name] = v
		}
	}
	return all, nil
}

// reportLayers computes and prints the traced run's per-layer metrics,
// layer self times and tracing overhead, and writes its spans.
func (b *bench) reportLayers(out io.Writer, traced *run, s setupResult, untracedQPS float64) (values, error) {
	rate, err := decodeProbe(seismic.NewAdapter(), b.m, filesRun(traced, b.pool), 1<<20)
	if err != nil {
		return nil, err
	}
	lv := layerValues(traced, s, rate)
	tracedQPS := qps(traced)
	lv["trace.overhead_pct"] = 100 * (ratio(untracedQPS, tracedQPS) - 1)
	printMetrics(out, "per-layer metrics (traced run; * marks layers mapped to this workload)", perLayer, lv, b.w.name)
	spans := spansOf(traced, b.w.flow)
	printSelfTimes(out, selfTimes(spans), len(traced.records))
	fmt.Fprintf(out, "tracing overhead: %.2f%% (untraced %.1f q/s, traced %.1f q/s)\n",
		lv["trace.overhead_pct"], untracedQPS, tracedQPS)
	path := filepath.Join(b.cfg.build, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), path)
	return lv, nil
}

// replay runs the first n requests of client 0's stream one after
// another, untimed, for the determinism check.
func replay(e *core.Engine, w *workload, m *repo.Manifest, pool []query, seed int64, n int) *run {
	r := &run{}
	next := newStreams(w, pool, seed)[0]
	start := time.Now()
	for range n {
		s := next()
		rec, _ := runQuery(e, w.flow, "client-0", pool[s.idx].sql, start, false)
		rec.idx = s.idx
		r.records = append(r.records, rec)
		if s.changed != "" {
			rewrite(e, m, s.changed)
		}
	}
	return r
}

// filesRun lists the repository files the run's queries selected.
func filesRun(r *run, pool []query) []string {
	seen := map[string]bool{}
	var out []string
	for i := range r.records {
		for _, f := range pool[r.records[i].idx].files {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	sort.Strings(out)
	return out
}

// distinct counts the distinct queries whose answers the runs kept.
func distinct(runs []*run) int {
	seen := map[int]bool{}
	for _, r := range runs {
		for k := range r.answers {
			seen[k.idx] = true
		}
	}
	return len(seen)
}
