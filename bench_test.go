// Benchmarks regenerating the paper's evaluation: Table 1 (dataset and
// sizes), Figure 3 (Query 1/2, cold/hot, Ei vs ALi), the up-front
// ingestion gap, the index-build-to-load ratio, and the ablations the
// paper's Challenges section motivates (cache granularity, merge
// strategy, derived metadata, selectivity sweep).
//
// Scale is controlled by REPRO_SCALE (tiny | small | medium); the
// default is small. Custom metrics: "modeled-ms/op" adds the virtual
// disk time of the cost model to wall time (see internal/storage).
package repro_test

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/benchutil"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/mseed"
	"repro/internal/repo"
	"repro/internal/seismic"
	"repro/internal/storage"
	"repro/internal/vector"
	"repro/internal/waveform"
)

var (
	benchBase string
	baseOnce  sync.Once
)

// benchDir returns the shared scratch directory for benchmark datasets.
func benchDir(b *testing.B) string {
	b.Helper()
	baseOnce.Do(func() {
		dir, err := os.MkdirTemp("", "repro-bench-")
		if err != nil {
			b.Fatal(err)
		}
		benchBase = dir
	})
	return benchBase
}

var (
	engines   = map[string]*core.Engine{}
	manifests = map[string]*repo.Manifest{}
	engineMu  sync.Mutex
)

// benchManifest returns the shared repository manifest for a scale,
// building it on first use. Callers must hold engineMu.
func benchManifest(b *testing.B, sc benchutil.Scale) *repo.Manifest {
	b.Helper()
	m, ok := manifests[sc.Name]
	if !ok {
		var err error
		m, err = benchutil.BuildRepo(benchDir(b), sc)
		if err != nil {
			b.Fatal(err)
		}
		manifests[sc.Name] = m
	}
	return m
}

// benchEngine returns a shared engine for (scale, mode), building the
// repository and ingesting on first use.
func benchEngine(b *testing.B, sc benchutil.Scale, mode core.Mode) *core.Engine {
	b.Helper()
	engineMu.Lock()
	defer engineMu.Unlock()
	key := sc.Name + "/" + mode.String()
	if e, ok := engines[key]; ok {
		return e
	}
	m := benchManifest(b, sc)
	e, err := benchutil.OpenEngine(m, benchDir(b), core.Options{Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	engines[key] = e
	return e
}

func benchScale() benchutil.Scale { return benchutil.EnvScale() }

// runQuery times one query execution, reporting wall and modeled time.
func runQuery(b *testing.B, e *core.Engine, query string, cold bool) {
	b.Helper()
	var modeled time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			e.FlushCold()
			e.Cache().Clear()
		}
		ioBefore := e.Clock().Elapsed()
		start := time.Now()
		if _, err := e.Query(query); err != nil {
			b.Fatal(err)
		}
		modeled += time.Since(start) + e.Clock().Elapsed() - ioBefore
	}
	b.ReportMetric(float64(modeled.Milliseconds())/float64(b.N), "modeled-ms/op")
}

// --- Figure 3: Query 1 and Query 2, cold and hot, Ei vs ALi ---

func BenchmarkFigure3Query1ColdALi(b *testing.B) {
	runQuery(b, benchEngine(b, benchScale(), core.ModeALi), benchutil.Query1, true)
}

func BenchmarkFigure3Query1ColdEi(b *testing.B) {
	runQuery(b, benchEngine(b, benchScale(), core.ModeEi), benchutil.Query1, true)
}

func BenchmarkFigure3Query1HotALi(b *testing.B) {
	runQuery(b, benchEngine(b, benchScale(), core.ModeALi), benchutil.Query1, false)
}

func BenchmarkFigure3Query1HotEi(b *testing.B) {
	runQuery(b, benchEngine(b, benchScale(), core.ModeEi), benchutil.Query1, false)
}

func BenchmarkFigure3Query2ColdALi(b *testing.B) {
	runQuery(b, benchEngine(b, benchScale(), core.ModeALi), benchutil.Query2, true)
}

func BenchmarkFigure3Query2ColdEi(b *testing.B) {
	runQuery(b, benchEngine(b, benchScale(), core.ModeEi), benchutil.Query2, true)
}

func BenchmarkFigure3Query2HotALi(b *testing.B) {
	runQuery(b, benchEngine(b, benchScale(), core.ModeALi), benchutil.Query2, false)
}

func BenchmarkFigure3Query2HotEi(b *testing.B) {
	runQuery(b, benchEngine(b, benchScale(), core.ModeEi), benchutil.Query2, false)
}

// BenchmarkFigure3Query1ColdALiParallel sweeps the ingestion/mount
// worker count over the cold-ALi column of Figure 3: per-file
// extract/transform is the hot path of every cold query, so wall time
// should drop as workers grow while the answer stays identical.
func BenchmarkFigure3Query1ColdALiParallel(b *testing.B) {
	sc := benchScale()
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			engineMu.Lock()
			m := benchManifest(b, sc)
			engineMu.Unlock()
			e, err := benchutil.OpenEngine(m, benchDir(b), core.Options{Mode: core.ModeALi, Parallelism: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			runQuery(b, e, benchutil.Query1, true)
		})
	}
}

// BenchmarkConcurrentColdClients measures K clients issuing the same
// cold wide query against ONE ALi engine: the shared mount service
// coalesces their extractions, so total file-mounts stay ~one per file
// of interest instead of K per file. mounts-per-file is the headline
// metric.
func BenchmarkConcurrentColdClients(b *testing.B) {
	sc := benchScale()
	query := benchutil.SweepQueryForDays(sc.Days)
	for _, k := range []int{2, 8} {
		k := k
		b.Run(fmt.Sprintf("clients=%d", k), func(b *testing.B) {
			engineMu.Lock()
			m := benchManifest(b, sc)
			engineMu.Unlock()
			e, err := benchutil.OpenEngine(m, benchDir(b), core.Options{
				Mode:  core.ModeALi,
				Cache: cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			var mounts int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e.FlushCold()
				e.Cache().Clear()
				b.StartTimer()
				var wg sync.WaitGroup
				results := make([]*core.Result, k)
				errs := make([]error, k)
				for c := 0; c < k; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						results[c], errs[c] = e.Query(query)
					}(c)
				}
				wg.Wait()
				for c := 0; c < k; c++ {
					if errs[c] != nil {
						b.Fatal(errs[c])
					}
					mounts += results[c].Stats.Mounts.FilesMounted
				}
			}
			b.ReportMetric(float64(mounts)/float64(b.N)/float64(sc.Files()), "mounts-per-file")
		})
	}
}

// --- Table 1: sizes; reported as metrics from a one-shot measurement ---

func BenchmarkTable1Sizes(b *testing.B) {
	sc := benchutil.Tiny
	t1, err := benchutil.ExperimentTable1(benchDir(b), sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t1
	}
	b.ReportMetric(float64(t1.MSEEDBytes), "mseed-bytes")
	b.ReportMetric(float64(t1.DBBytes), "db-bytes")
	b.ReportMetric(float64(t1.KeyBytes), "key-bytes")
	b.ReportMetric(float64(t1.ALiBytes), "ali-bytes")
	b.ReportMetric(float64(t1.DRecords), "samples")
}

// --- Up-front ingestion: the data-to-insight gap and the 4x index claim ---

func BenchmarkIngestionMetadataOnly(b *testing.B) {
	sc := benchutil.Tiny
	m, err := benchutil.BuildRepo(benchDir(b), sc)
	if err != nil {
		b.Fatal(err)
	}
	uris := make([]string, len(m.Files))
	for i, f := range m.Files {
		uris[i] = f.URI
	}
	ad := seismic.NewAdapter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clock := &storage.Clock{}
		pool := storage.NewBufferPool(4096, storage.HDD7200(), clock)
		dir, _ := os.MkdirTemp(benchDir(b), "ing-")
		store, err := storage.Open(dir, pool)
		if err != nil {
			b.Fatal(err)
		}
		newCatalog(b, store, ad)
		b.StartTimer()
		if _, err := ingest.LoadMetadata(store, ad, m.Dir, uris); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		store.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

func BenchmarkIngestionEager(b *testing.B) {
	sc := benchutil.Tiny
	m, err := benchutil.BuildRepo(benchDir(b), sc)
	if err != nil {
		b.Fatal(err)
	}
	uris := make([]string, len(m.Files))
	for i, f := range m.Files {
		uris[i] = f.URI
	}
	ad := seismic.NewAdapter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clock := &storage.Clock{}
		pool := storage.NewBufferPool(4096, storage.HDD7200(), clock)
		dir, _ := os.MkdirTemp(benchDir(b), "ing-")
		store, err := storage.Open(dir, pool)
		if err != nil {
			b.Fatal(err)
		}
		newCatalog(b, store, ad)
		b.StartTimer()
		res, err := ingest.LoadEager(store, ad, m.Dir, uris, true)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, ix := range res.Indexes {
			ix.Index.Close()
		}
		store.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

func BenchmarkIndexBuildRatio(b *testing.B) {
	g, err := benchutil.ExperimentIngestion(benchDir(b), benchutil.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g
	}
	b.ReportMetric(g.IndexToLoad, "index-to-load-ratio")
	b.ReportMetric(g.UpFrontRatio, "ei-to-ali-ratio")
}

// --- Interactivity: breakpoint latency (stage 1 only) ---

func BenchmarkStage1Breakpoint(b *testing.B) {
	e := benchEngine(b, benchScale(), core.ModeALi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := e.Prepare(benchutil.Query1)
		if err != nil {
			b.Fatal(err)
		}
		bp, err := p.Stage1()
		if err != nil {
			b.Fatal(err)
		}
		if bp.Done() {
			b.Fatal("unexpected single-stage answer")
		}
	}
}

// --- Ablations ---

func BenchmarkSelectivitySweep(b *testing.B) {
	sc := benchutil.Tiny
	for _, days := range []int{1, 4, 13} {
		days := days
		b.Run(sweepName(days), func(b *testing.B) {
			m, err := benchutil.BuildRepo(benchDir(b), sc)
			if err != nil {
				b.Fatal(err)
			}
			e, err := benchutil.OpenEngine(m, benchDir(b), core.Options{Mode: core.ModeALi})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			q := benchutil.SweepQueryForDays(days)
			runQuery(b, e, q, true)
		})
	}
}

func sweepName(days int) string {
	switch days {
	case 1:
		return "days=1"
	case 4:
		return "days=4"
	default:
		return "days=all"
	}
}

func BenchmarkCacheGranularity(b *testing.B) {
	sc := benchutil.Tiny
	for _, cfg := range []struct {
		name string
		c    cache.Config
	}{
		{"none", cache.Config{Policy: cache.NeverCache}},
		{"file", cache.Config{Policy: cache.LRU, Granularity: cache.FileGranular}},
		{"tuple", cache.Config{Policy: cache.LRU, Granularity: cache.TupleGranular}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			m, err := benchutil.BuildRepo(benchDir(b), sc)
			if err != nil {
				b.Fatal(err)
			}
			e, err := benchutil.OpenEngine(m, benchDir(b), core.Options{Mode: core.ModeALi, Cache: cfg.c})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			session := benchutil.ZoomSessionQueries()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Cache().Clear()
				for _, q := range session {
					if _, err := e.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkMergeStrategy(b *testing.B) {
	sc := benchutil.Tiny
	for _, strat := range []core.MergeStrategy{core.StrategyBulk, core.StrategyPerFile} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			m, err := benchutil.BuildRepo(benchDir(b), sc)
			if err != nil {
				b.Fatal(err)
			}
			e, err := benchutil.OpenEngine(m, benchDir(b), core.Options{Mode: core.ModeALi, Strategy: strat})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			runQuery(b, e, benchutil.SweepQueryForDays(4), false)
		})
	}
}

func BenchmarkDerivedMetadata(b *testing.B) {
	sc := benchutil.Tiny
	for _, enabled := range []bool{false, true} {
		enabled := enabled
		name := "without"
		if enabled {
			name = "with"
		}
		b.Run(name, func(b *testing.B) {
			m, err := benchutil.BuildRepo(benchDir(b), sc)
			if err != nil {
				b.Fatal(err)
			}
			e, err := benchutil.OpenEngine(m, benchDir(b), core.Options{Mode: core.ModeALi, EnableDerived: enabled})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			runQuery(b, e, benchutil.FullRecordSummaryQuery(), false)
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkSteimEncode(b *testing.B) {
	samples := waveform.Synthesize(7, 40000, waveform.DefaultParams())
	b.SetBytes(int64(len(samples) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mseed.EncodeSteim(samples)
	}
}

func BenchmarkSteimDecode(b *testing.B) {
	samples := waveform.Synthesize(7, 40000, waveform.DefaultParams())
	frames := mseed.EncodeSteim(samples)
	b.SetBytes(int64(len(samples) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mseed.DecodeSteim(frames, len(samples)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaveformSynthesis(b *testing.B) {
	b.SetBytes(40000 * 4)
	for i := 0; i < b.N; i++ {
		waveform.Synthesize(int64(i), 40000, waveform.DefaultParams())
	}
}

func BenchmarkMetadataScanHeaders(b *testing.B) {
	sc := benchutil.Tiny
	m, err := benchutil.BuildRepo(benchDir(b), sc)
	if err != nil {
		b.Fatal(err)
	}
	path := m.Path(m.Files[0].URI)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mseed.ScanHeaders(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMountFullFile(b *testing.B) {
	sc := benchutil.Tiny
	m, err := benchutil.BuildRepo(benchDir(b), sc)
	if err != nil {
		b.Fatal(err)
	}
	ad := seismic.NewAdapter()
	uri := m.Files[0].URI
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := catalog.CollectMount(ad, m.Path(uri), uri, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// newCatalog wires the adapter's tables into a fresh store.
func newCatalog(b *testing.B, store *storage.Store, ad *seismic.Adapter) {
	b.Helper()
	if err := ingest.EnsureTables(store, catalog.New(), ad); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCoWSharedReplay measures the shared-Qf-replay path (per-file
// merge strategy replays one Qf result across every file of interest)
// under the old deep-clone discipline versus copy-on-write shares.
// allocs/op and B/op are the headline metrics: share mode performs O(1)
// deep copies total instead of one per file.
func BenchmarkCoWSharedReplay(b *testing.B) {
	sc := benchScale()
	query := benchutil.SweepQueryForDays(sc.Days)
	for _, mode := range []struct {
		name  string
		clone bool
	}{{"clone", true}, {"share", false}} {
		b.Run(mode.name, func(b *testing.B) {
			engineMu.Lock()
			m := benchManifest(b, sc)
			engineMu.Unlock()
			e, err := benchutil.OpenEngine(m, benchDir(b), core.Options{
				Mode: core.ModeALi, Strategy: core.StrategyPerFile,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			prev := vector.SetForceCloneShares(mode.clone)
			defer vector.SetForceCloneShares(prev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e.FlushCold()
				e.Cache().Clear()
				b.StartTimer()
				if _, err := e.Query(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResultCacheConcurrentClients measures K identical concurrent
// queries against one warm engine with and without the result cache:
// without it every client pays a full Qf+Qs execution; with it one
// client leads and the riders receive O(1) CoW shares. The
// "executions-per-burst" metric is total file mounts divided by the
// repository size — 1.0 means single-flight collapsed the burst to one
// execution.
func BenchmarkResultCacheConcurrentClients(b *testing.B) {
	sc := benchScale()
	query := benchutil.SweepQueryForDays(sc.Days)
	for _, mode := range []struct {
		name       string
		cacheBytes int64
	}{{"nocache", 0}, {"resultcache", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			engineMu.Lock()
			m := benchManifest(b, sc)
			engineMu.Unlock()
			e, err := benchutil.OpenEngine(m, benchDir(b), core.Options{
				Mode:             core.ModeALi,
				ResultCacheBytes: mode.cacheBytes,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			const k = 8
			var mounts int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e.FlushCold()
				e.Cache().Clear() // also bumps the result-cache epoch: every burst is cold
				b.StartTimer()
				var wg sync.WaitGroup
				results := make([]*core.Result, k)
				errs := make([]error, k)
				for c := 0; c < k; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						results[c], errs[c] = e.Query(query)
					}(c)
				}
				wg.Wait()
				for c := 0; c < k; c++ {
					if errs[c] != nil {
						b.Fatal(errs[c])
					}
					mounts += results[c].Stats.Mounts.FilesMounted
				}
			}
			b.ReportMetric(float64(mounts)/float64(b.N)/float64(sc.Files()), "executions-per-burst")
		})
	}
}
