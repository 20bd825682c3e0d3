package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/benchutil"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/repo"
)

// flow is the public call sequence a workload drives per query.
type flow int

const (
	// flowBreakpoint is PrepareAs → Stage1 → Proceed: the paper's
	// interactive path, with the breakpoint between the two stages.
	flowBreakpoint flow = iota
	// flowQueryAs is QueryAs, so concurrent identical queries coalesce
	// on the result cache's single-flight.
	flowQueryAs
)

// query is one distinct query of a workload's pool.
type query struct {
	sql string
	// files are the repository files the query's predicates select; the
	// decode probe reads them, and a file-change write names the first of a
	// session query's.
	files []string
	// ordered marks an ORDER BY: answers then compare row by row in
	// order instead of as multisets.
	ordered bool
}

// step is one request of a client's stream: a pool index, and the file
// the client then reports changed, if any.
type step struct {
	idx     int
	changed string
}

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop: each client sends its next query when the previous one
// has answered, because an explorer waits for each answer.
type workload struct {
	name    string
	why     string
	scale   benchutil.Scale
	clients int
	flow    flow
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// detQueries is the prefix length the determinism check replays;
	// 0 skips the check (several clients interleave nondeterministically).
	detQueries int
	// options configures an engine; dir is a fresh directory the engine
	// may use for spill files.
	options func(dir string) core.Options
	// pool builds the workload's distinct queries from the seed, and
	// stream returns client c's request sequence over that pool.
	pool   func(m *repo.Manifest, rng *rand.Rand) []query
	stream func(pool []query, seed int64, client int) func() step
}

const mib = 1 << 20

var workloads = []*workload{
	{
		name: "explore-cold",
		why: "ALi with both caches off and a buffer pool below the repository size: every query pays Stage 1, " +
			"1-3 file mounts, decodes and modeled reads; a cache change should show no change here",
		scale:      benchutil.Medium,
		clients:    1,
		flow:       flowBreakpoint,
		setups:     21,
		detQueries: 64,
		options: func(string) core.Options {
			// The default pool (1 GiB) would hold the 34 MB repository after
			// one pass, and mounts would stop paying modeled reads; 16 MiB
			// keeps the repository larger than memory.
			return core.Options{Mode: core.ModeALi, PoolPages: 256}
		},
		pool:   explorePool,
		stream: cycle,
	},
	{
		name: "explore-session",
		why: "two clients zoom then pan over Zipf-skewed events, one file-change write per 8 queries, " +
			"caches under budget, flights spill: cache serves, invalidations and re-mounts dominate",
		scale:   benchutil.Medium,
		clients: 2,
		flow:    flowQueryAs,
		setups:  21,
		options: func(dir string) core.Options {
			// Each write clears the result cache, so between two writes it
			// holds what one session per client caches; 128 KiB is less
			// than that, and entries are demoted to the disk tier and
			// promoted back. The ingestion cache holds less than the
			// events' files, so it evicts. A flight extracts a whole file
			// here, more than the spill threshold, so flights spill and a
			// client that joins the other's flight late replays the
			// spilled prefix from disk.
			return core.Options{
				Mode: core.ModeALi,
				Cache: cache.Config{
					Policy: cache.LRU, Granularity: cache.FileGranular, MaxBytes: 16 * mib,
				},
				ResultCacheBytes:       128 << 10,
				ResultCacheSubsumption: true,
				SpillDir:               dir,
				ResultCacheDiskBytes:   64 * mib,
				SpillThresholdBytes:    1 * mib,
			}
		},
		pool:   sessionPool,
		stream: sessions,
	},
	{
		name: "survey-wide",
		why: "grouped aggregates over one or two whole days of every station and channel, mount budget and buffer pool " +
			"below one query's files: Stage 2 operators, decode, admission and modeled reads dominate",
		scale:      benchutil.Medium,
		clients:    1,
		flow:       flowBreakpoint,
		setups:     21,
		detQueries: 3,
		options: func(string) core.Options {
			return core.Options{
				Mode: core.ModeALi,
				// Medium files average 69 KiB: the budget admits one flight
				// and makes the second of two parallel mounts wait.
				MountBudgetBytes: 96 << 10,
				// 32 pages of 64 KiB hold less than one day's files, so
				// every query pays the modeled reads of all it mounts.
				// Flight spilling stays off: whether a replay reads a batch
				// from the spill file or from memory depends on timing, so
				// it would charge different modeled I/O on each run, and
				// this workload's modeled I/O is checked exactly.
				PoolPages: 32,
			}
		},
		pool:   surveyPool,
		stream: cycle,
	},
	{
		name: "warehouse-ei",
		why: "Ei eager load plus index build with a buffer pool smaller than the column store: " +
			"set-up and pooled column reads dominate; an ALi-only change should show no change here",
		scale:      benchutil.Small,
		clients:    1,
		flow:       flowBreakpoint,
		setups:     5,
		detQueries: 32,
		options: func(string) core.Options {
			// 512 pages of 64 KiB: 32 MiB against an 82 MiB column store.
			return core.Options{Mode: core.ModeEi, PoolPages: 512}
		},
		pool:   explorePool,
		stream: cycle,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

const tsLayout = "2006-01-02T15:04:05.000"

func ts(ns int64) string { return time.Unix(0, ns).UTC().Format(tsLayout) }

// dayRange returns the start of n whole days that include the file's
// day, and the start of the day after them: the file's day and the ones
// after it, or before it where the repository has no later days.
func dayRange(m *repo.Manifest, f repo.FileInfo, n int) (from, to time.Time) {
	lastDay := 0
	for _, g := range m.Files {
		lastDay = max(lastDay, g.DayOfYear)
	}
	from = time.Unix(0, f.StartTime).UTC().Truncate(24 * time.Hour)
	if shift := lastDay - (f.DayOfYear + n - 1); shift < 0 {
		from = from.AddDate(0, 0, shift)
	}
	return from, from.AddDate(0, 0, n)
}

// query1 respells the paper's Query 1 (benchutil.Query1) for another
// file and sample window: an average over one station and channel.
func query1(m *repo.Manifest, f repo.FileInfo, lo, hi int64) query {
	from, to := dayRange(m, f, 1)
	sql := strings.NewReplacer(
		"'ISK'", "'"+f.Station+"'",
		"'BHE'", "'"+f.Channel+"'",
		"2010-01-12T00:00:00.000", from.Format(tsLayout),
		"2010-01-12T23:59:59.999", to.Add(-time.Millisecond).Format(tsLayout),
		"2010-01-12T22:15:00.000", ts(lo),
		"2010-01-12T22:15:02.000", ts(hi),
	).Replace(benchutil.Query1)
	return query{sql: sql, files: []string{f.URI}}
}

// query2 respells the paper's Query 2 (benchutil.Query2): the waveform
// rows of one station in a window, over one channel or all of them, with
// the metadata filter admitting days whole days. Its output is raw rows,
// the shape semantic caching can re-filter. With days = 2 the files of
// the day without the window hold no sample in it, so the planner can
// prune them after Stage 1.
func query2(m *repo.Manifest, f repo.FileInfo, channel bool, days int, lo, hi int64) query {
	from, to := dayRange(m, f, days)
	where := "'" + f.Station + "'"
	if channel {
		where += " AND F.channel = '" + f.Channel + "'"
	}
	var files []string
	for _, g := range m.Files {
		start := time.Unix(0, g.StartTime)
		if g.Station == f.Station && (!channel || g.Channel == f.Channel) &&
			!start.Before(from) && start.Before(to) {
			files = append(files, g.URI)
		}
	}
	sql := strings.NewReplacer(
		"'ISK'", where,
		"2010-01-12T00:00:00.000", from.Format(tsLayout),
		"2010-01-12T23:59:59.999", to.Add(-time.Millisecond).Format(tsLayout),
		"2010-01-12T22:15:00.000", ts(lo),
		"2010-01-12T22:15:02.000", ts(hi),
	).Replace(benchutil.Query2)
	return query{sql: sql, files: files}
}

// explorePoolSize is the number of distinct exploration queries per
// seed. Streams cycle through the pool, so every distinct answer is
// checked against a reference while the stream stays long.
const explorePoolSize = 512

// explorePool draws Query-1/Query-2-shaped queries: a random file
// (station, channel, day) and a 2-60 s window inside its coverage.
// Every fourth query drops the channel filter, admits two days of
// metadata and returns the rows of all three channels. Window lengths follow a golden-ratio sequence
// from a seeded start, so every seed gets the same spread of lengths
// and the per-query cost mix does not drift with the seed.
func explorePool(m *repo.Manifest, rng *rand.Rand) []query {
	phi := (math.Sqrt(5) - 1) / 2
	u := rng.Float64()
	out := make([]query, explorePoolSize)
	for i := range out {
		f := m.Files[rng.Intn(len(m.Files))]
		length := int64(2*time.Second) + int64(float64(58*time.Second)*math.Mod(u+float64(i)*phi, 1))
		length = min(length, (f.EndTime-f.StartTime)/2) // small scales cover under two minutes a file
		lo := f.StartTime + rng.Int63n(f.EndTime-f.StartTime-length)
		lo -= lo % int64(time.Millisecond)
		if i%4 == 3 {
			out[i] = query2(m, f, false, 2, lo, lo+length)
		} else {
			out[i] = query1(m, f, lo, lo+length)
		}
	}
	return out
}

// cycle walks the pool in order, the same for every client.
func cycle(pool []query, _ int64, _ int) func() step {
	i := 0
	return func() step {
		s := step{idx: i % len(pool)}
		i++
		return s
	}
}

// Session geometry: zoom in through four nested windows around an
// event, then pan right in four 8 s steps. The first three pans fall
// inside the widest zoom window; the last reaches past it.
const (
	sessionEvents   = 16
	sessionQueries  = 8
	zipfSkew        = 1.3
	zoomWidest      = 32 * time.Second // half-width of the first window
	panWidth        = 8 * time.Second
	eventEdgeMargin = 40 * time.Second
)

// sessionPool draws sessionEvents events (one file, one centre) and
// spells each event's session queries; pool index event*8+k is the k-th
// query of the event's session.
func sessionPool(m *repo.Manifest, rng *rand.Rand) []query {
	out := make([]query, 0, sessionEvents*sessionQueries)
	margin := int64(eventEdgeMargin)
	for range sessionEvents {
		f := m.Files[rng.Intn(len(m.Files))]
		span := f.EndTime - f.StartTime - 2*margin
		c := f.StartTime + margin
		if span > 0 {
			c += rng.Int63n(span)
		}
		c -= c % int64(time.Millisecond)
		half := int64(zoomWidest)
		for range 4 {
			out = append(out, query2(m, f, true, 1, c-half, c+half))
			half /= 2
		}
		for k := int64(0); k < 4; k++ {
			lo := c + int64(panWidth)/2 + k*int64(panWidth)
			out = append(out, query2(m, f, true, 1, lo, lo+int64(panWidth)))
		}
	}
	return out
}

// sessions draws each client's events from a Zipf distribution over the
// pool's events, so clients revisit and overlap each other's sessions.
// Writes go between sessions, one after every session: the client
// reports one event's file changed, the event drawn from the same
// distribution, so new data lands where the explorers look.
func sessions(pool []query, seed int64, client int) func() step {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	events := len(pool) / sessionQueries
	zipf := rand.NewZipf(rng, zipfSkew, 1, uint64(events-1))
	var event, k int
	return func() step {
		if k == 0 {
			event = int(zipf.Uint64())
		}
		s := step{idx: event*sessionQueries + k}
		k = (k + 1) % sessionQueries
		if k == 0 {
			s.changed = pool[int(zipf.Uint64())*sessionQueries].files[0]
		}
		return s
	}
}

// surveyPoolSize is the number of distinct survey queries per seed; a
// 20 s run completes about two dozen, so it cycles the pool twice.
const surveyPoolSize = 12

// surveyPool spells grouped aggregates over one or two whole days of
// every station and channel, each starting on another seeded day. Every
// third query spans two days: any stretch of a run then holds the same
// share of long queries to within one, so the per-query means barely
// move with the run's length, and one-day queries make up the median.
func surveyPool(m *repo.Manifest, rng *rand.Rand) []query {
	lastDay := 0
	for _, f := range m.Files {
		lastDay = max(lastDay, f.DayOfYear)
	}
	starts := rng.Perm(lastDay - 1)[:min(surveyPoolSize, lastDay-1)]
	out := make([]query, len(starts))
	for i, d := range starts {
		first, n := d+1, 1
		if i%3 == 2 {
			n = 2
		}
		sql := benchutil.SweepQueryForDays(first + n - 1)
		lo := time.Date(2010, 1, first, 0, 0, 0, 0, time.UTC)
		sql = strings.Replace(sql, "'2010-01-01T00:00:00.000'", "'"+lo.Format(tsLayout)+"'", 1)
		sql = strings.Replace(sql, "SELECT AVG(D.sample_value)",
			"SELECT F.station, F.channel, COUNT(*) AS n, AVG(D.sample_value) AS mean, "+
				"MIN(D.sample_value) AS lo, MAX(D.sample_value) AS hi", 1)
		sql += "\nGROUP BY F.station, F.channel\nORDER BY F.station, F.channel"
		var files []string
		for _, f := range m.Files {
			if f.DayOfYear >= first && f.DayOfYear < first+n {
				files = append(files, f.URI)
			}
		}
		out[i] = query{sql: sql, files: files, ordered: true}
	}
	return out
}
