package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mountsvc"
	"repro/internal/repo"
	"repro/internal/resultcache"
	"repro/internal/storage"
)

// served classifies how the engine answered a query; each distinct query
// keeps one answer per serve path for the correctness check.
type served int

// answerKey names a kept answer: a pool index and a serve path.
type answerKey struct {
	idx  int
	path served
}

const (
	servedExecuted served = iota
	servedCached
	servedSubsumed
	servedRider
)

func servedOf(st core.Stats) served {
	switch {
	case st.ServedBySubsumption:
		return servedSubsumed
	case st.CoalescedRider:
		return servedRider
	case st.ServedFromResultCache:
		return servedCached
	}
	return servedExecuted
}

// record is what the benchmark keeps of one executed query.
type record struct {
	idx    int
	client int
	err    error
	// start and the phase ends are offsets from the run's start.
	start, end time.Duration
	// prepare, stage1 and stage2 are the layer times: client-side spans
	// around PrepareAs, Stage1 and Proceed in the breakpoint flow, and
	// the engine's Result.Stats split of the QueryAs span otherwise.
	prepare, stage1, stage2 time.Duration
	ranStage2               bool
	stats                   core.Stats
	// counter deltas around the query (traced runs only; with several
	// clients they include the other clients' concurrent work).
	flights, pagesRead int64
}

// rowsMounted is the repository data rows the query's mounts decoded,
// which the mount service counts in RecordsMounted.
func (r *record) rowsMounted() int64 { return int64(r.stats.Mounts.RecordsMounted) }

func (r *record) latency() time.Duration { return r.end - r.start }

// run is one timed pass of a workload over one engine.
type run struct {
	wall    time.Duration
	records []record
	// answers holds the first result per distinct query and serve path.
	answers  map[answerKey]*core.Result
	before   snapshot
	after    snapshot
	rss      []rssSample
	notifies int
}

// snapshot holds every public counter the benchmark reads from outside.
type snapshot struct {
	clock   time.Duration
	mounts  mountsvc.Stats
	results resultcache.Stats
	cache   cache.Stats
	pool    storage.PoolStats
	rt      runtimeStats
}

func takeSnapshot(e *core.Engine) snapshot {
	return snapshot{
		clock:   e.Clock().Elapsed(),
		mounts:  e.MountService().Stats(),
		results: e.ResultCache().Stats(),
		cache:   e.Cache().Stats(),
		pool:    e.Pool().Stats(),
		rt:      readRuntime(),
	}
}

// runtimeStats are the Go runtime's cumulative allocation and CPU
// counters (runtime/metrics).
type runtimeStats struct {
	allocBytes               uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		idleCPU:    s[3].Value.Float64(),
	}
}

// openEngine opens an engine on a fresh database directory under dir
// and returns the wall time of core.Open alone.
func openEngine(m *repo.Manifest, dir string, opts core.Options) (*core.Engine, time.Duration, error) {
	dbDir := filepath.Join(dir, "db")
	if err := os.MkdirAll(dbDir, 0o755); err != nil {
		return nil, 0, err
	}
	opts.RepoDir, opts.DBDir = m.Dir, dbDir
	start := time.Now()
	e, err := core.Open(opts)
	took := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("open engine: %w", err)
	}
	return e, took, nil
}

// newStreams returns each client's request stream. Successive timed
// runs over the same streams continue where the last one stopped.
func newStreams(w *workload, pool []query, seed int64) []func() step {
	out := make([]func() step, w.clients)
	for c := range out {
		out[c] = w.stream(pool, seed, c)
	}
	return out
}

// timedRun drives the workload's clients against e for d, closed loop,
// each client drawing from its stream.
func timedRun(e *core.Engine, w *workload, m *repo.Manifest, pool []query, streams []func() step, d time.Duration, traced bool) *run {
	// Return set-up garbage to the OS so peak RSS reflects this run.
	debug.FreeOSMemory()
	r := &run{answers: make(map[answerKey]*core.Result)}
	r.before = takeSnapshot(e)
	start := time.Now()
	deadline := start.Add(d)
	stopRSS := sampleRSS(start)

	type clientOut struct {
		records  []record
		answers  map[answerKey]*core.Result
		notifies int
	}
	outs := make([]clientOut, w.clients)
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[c]
			out.answers = make(map[answerKey]*core.Result)
			next := streams[c]
			session := fmt.Sprintf("client-%d", c)
			for time.Now().Before(deadline) {
				s := next()
				rec, res := runQuery(e, w.flow, session, pool[s.idx].sql, start, traced)
				rec.idx, rec.client = s.idx, c
				out.records = append(out.records, rec)
				if res != nil {
					k := answerKey{s.idx, servedOf(res.Stats)}
					if _, ok := out.answers[k]; !ok {
						out.answers[k] = res
					}
				}
				if s.changed != "" {
					rewrite(e, m, s.changed)
					out.notifies++
				}
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.rss = stopRSS()
	r.after = takeSnapshot(e)
	for _, out := range outs {
		r.records = append(r.records, out.records...)
		r.notifies += out.notifies
		for k, res := range out.answers {
			if _, ok := r.answers[k]; !ok {
				r.answers[k] = res
			}
		}
	}
	return r
}

// rewrite is a file-change write: the file's bytes on disk are new, so
// its pages in the buffer pool are stale and are dropped, and the engine
// is told the file changed, which invalidates what it cached from it.
func rewrite(e *core.Engine, m *repo.Manifest, uri string) {
	e.Pool().Invalidate(m.Path(uri))
	e.NotifyFileChanged(uri)
}

// runQuery issues one query through the workload's public call sequence.
func runQuery(e *core.Engine, f flow, session, sql string, runStart time.Time, traced bool) (record, *core.Result) {
	ctx := context.Background()
	var rec record
	var flightsBefore, pagesBefore int64
	if traced {
		flightsBefore, pagesBefore = e.MountService().Stats().FlightsStarted, e.Pool().Stats().PagesRead
	}
	t0 := time.Now()
	var res *core.Result
	var err error
	if f == flowQueryAs {
		res, err = e.QueryAs(ctx, session, sql)
		t1 := time.Now()
		rec.start, rec.end = t0.Sub(runStart), t1.Sub(runStart)
		if err == nil {
			st := res.Stats
			rec.prepare = t1.Sub(t0) - st.TotalWall
			rec.stage1, rec.stage2 = st.Stage1Wall, st.Stage2Wall
			rec.ranStage2 = st.Stage2Wall > 0
		}
	} else {
		var p *core.Prepared
		var bp *core.Breakpoint
		p, err = e.PrepareAs(ctx, session, sql)
		t1 := time.Now()
		if err == nil {
			bp, err = p.Stage1()
		}
		t2 := time.Now()
		if err == nil {
			res, err = bp.Proceed()
		}
		t3 := time.Now()
		rec.start, rec.end = t0.Sub(runStart), t3.Sub(runStart)
		rec.prepare, rec.stage1, rec.stage2 = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
		rec.ranStage2 = err == nil
	}
	if traced {
		rec.flights = e.MountService().Stats().FlightsStarted - flightsBefore
		rec.pagesRead = e.Pool().Stats().PagesRead - pagesBefore
	}
	if err != nil {
		rec.err = err
		return rec, nil
	}
	rec.stats = res.Stats
	return rec, res
}

// rssSample is the resident set size at an offset from the run's start.
type rssSample struct {
	at    time.Duration
	bytes int64
}

// sampleRSS polls the process's resident set size every 2 ms until the
// returned stop function is called; stop waits for the poller to exit
// and returns the samples.
func sampleRSS(start time.Time) (stop func() []rssSample) {
	done := make(chan struct{})
	var samples []rssSample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			samples = append(samples, rssSample{time.Since(start), residentBytes()})
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() []rssSample {
		close(done)
		wg.Wait()
		return append(samples, rssSample{time.Since(start), residentBytes()})
	}
}

// residentBytes reads VmRSS from /proc/self/status, falling back to the
// Go runtime's total obtained memory where /proc is unavailable.
func residentBytes() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				if kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}
