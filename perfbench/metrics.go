package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. The non-printOnly definitions are
// exactly the end_to_end and per_layer lists of BENCHMARK.json (a test
// keeps the two in step).
type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric a layer metric should move and
	// the workload on which it should move it.
	moves string
	// printOnly metrics are printed in the report but left out of the
	// JSON result line, which must carry every metric on every workload:
	// error_rate is 0 on a correct run, the setup modeled I/O repeats
	// exactly, the p99 needs 1000 queries (a 20 s survey-wide run completes
	// about two dozen), rows_per_s is 0 on warehouse-ei (Ei mounts nothing and
	// reports no scanned rows), and the rest are times of layers that do
	// no work on some workloads.
	printOnly bool
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "setup_modeled_io_s", unit: "s", better: "lower", printOnly: true},
	{name: "query_p50_ms", unit: "ms", better: "lower"},
	{name: "query_p99_ms", unit: "ms", better: "lower", printOnly: true},
	{name: "throughput_qps", unit: "1/s", better: "higher"},
	{name: "rows_per_s", unit: "rows/s", better: "higher", printOnly: true},
	{name: "modeled_io_ms_per_query", unit: "ms", better: "lower"},
	{name: "alloc_mb_per_query", unit: "MB", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "error_rate", unit: "ratio", better: "lower", printOnly: true},
}

var perLayer = []metricDef{
	{name: "plan.prepare_us_p50", unit: "us", better: "lower", moves: "query_p50_ms on explore-session"},
	{name: "core.stage1_us_p50", unit: "us", better: "lower", moves: "query_p50_ms on explore-cold"},
	{name: "core.files_of_interest_per_query", unit: "count/query", better: "lower", moves: "modeled_io_ms_per_query on explore-cold"},
	{name: "core.stage1_modeled_io_ms_per_query", unit: "ms", better: "lower", moves: "modeled_io_ms_per_query on explore-cold", printOnly: true},
	{name: "stats.pruned_files_per_query", unit: "count/query", better: "higher", moves: "modeled_io_ms_per_query on explore-cold"},
	{name: "stats.prune_ratio", unit: "ratio", better: "higher", moves: "modeled_io_ms_per_query on explore-cold"},
	{name: "stats.bytes_not_mounted_mb", unit: "MB/query", better: "higher", moves: "modeled_io_ms_per_query on explore-cold"},
	{name: "exec.stage2_ms_p50", unit: "ms", better: "lower", moves: "query_p50_ms on survey-wide"},
	{name: "exec.rows_mounted_per_query", unit: "count/query", better: "lower", moves: "alloc_mb_per_query on survey-wide"},
	{name: "exec.stage2_rows_per_s", unit: "rows/s", better: "higher", moves: "throughput_qps on survey-wide"},
	{name: "exec.stage2_modeled_io_ms_per_query", unit: "ms", better: "lower", moves: "modeled_io_ms_per_query on survey-wide", printOnly: true},
	{name: "exec.operator_ms_per_query", unit: "ms", better: "lower", moves: "throughput_qps on survey-wide"},
	{name: "seismic.decode_rows_per_s", unit: "rows/s", better: "higher", moves: "throughput_qps on survey-wide; query_p50_ms on explore-cold"},
	{name: "mountsvc.flights", unit: "count/query", better: "lower", moves: "throughput_qps on survey-wide"},
	{name: "mountsvc.single_flight_hits", unit: "count/query", better: "higher", moves: "throughput_qps on explore-session"},
	{name: "mountsvc.cache_serves", unit: "count/query", better: "higher", moves: "throughput_qps on explore-session"},
	{name: "mountsvc.peak_replay_mb", unit: "MB", better: "lower", moves: "peak_rss_mb on survey-wide"},
	{name: "mountsvc.spilled_mb", unit: "MB/query", better: "lower", moves: "peak_rss_mb on explore-session"},
	{name: "mountsvc.spill_replay_reads", unit: "count/query", better: "lower", moves: "modeled_io_ms_per_query on explore-session"},
	{name: "admission.waits", unit: "count/query", better: "lower", moves: "throughput_qps on survey-wide"},
	{name: "admission.wait_ms_total", unit: "ms", better: "lower", moves: "throughput_qps on survey-wide", printOnly: true},
	{name: "resultcache.hit_ratio", unit: "ratio", better: "higher", moves: "throughput_qps on explore-session"},
	{name: "resultcache.subsumption_hit_ratio", unit: "ratio", better: "higher", moves: "query_p50_ms on explore-session"},
	{name: "resultcache.riders", unit: "count/query", better: "higher", moves: "throughput_qps on explore-session"},
	{name: "resultcache.refilter_ms_total", unit: "ms", better: "lower", moves: "query_p50_ms on explore-session", printOnly: true},
	{name: "resultcache.demotions", unit: "count/query", better: "lower", moves: "modeled_io_ms_per_query on explore-session"},
	{name: "resultcache.promotions", unit: "count/query", better: "lower", moves: "modeled_io_ms_per_query on explore-session"},
	{name: "resultcache.invalidations", unit: "count/query", better: "lower", moves: "throughput_qps on explore-session"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher", moves: "modeled_io_ms_per_query on explore-session"},
	{name: "cache.evictions", unit: "count/query", better: "lower", moves: "modeled_io_ms_per_query on explore-session"},
	{name: "storage.pool_hit_ratio", unit: "ratio", better: "higher", moves: "modeled_io_ms_per_query on warehouse-ei"},
	{name: "storage.pages_read", unit: "count/query", better: "lower", moves: "modeled_io_ms_per_query on warehouse-ei"},
	{name: "storage.seeks", unit: "count/query", better: "lower", moves: "modeled_io_ms_per_query on warehouse-ei"},
	{name: "ingest.metadata_ms", unit: "ms", better: "lower", moves: "setup_s on every workload"},
	{name: "ingest.load_ms", unit: "ms", better: "lower", moves: "setup_s on warehouse-ei", printOnly: true},
	{name: "ingest.index_ms", unit: "ms", better: "lower", moves: "setup_s on warehouse-ei", printOnly: true},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower", moves: "throughput_qps on survey-wide"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "none: the cost of this benchmark's tracing"},
}

// values maps metric names to measured values; a metric a run cannot
// measure (the p99 of a short sample) is absent.
type values map[string]float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func durations(recs []record, pick func(*record) (time.Duration, bool)) []float64 {
	var out []float64
	for i := range recs {
		if d, ok := pick(&recs[i]); ok {
			out = append(out, float64(d))
		}
	}
	return out
}

// setupResult is what the repeated set-up measured.
type setupResult struct {
	open                  []float64 // seconds per core.Open
	metadata, load, index []float64 // ms per open, from Engine.Report()
}

// Throughput takes its median over up to maxSlices equal-count slices of
// a run, so a burst of interference from outside the process moves one
// slice, not the reported value. A slice holds at least minSliceQueries
// queries: survey-wide's two dozen queries make a single slice, the
// whole run.
const (
	maxSlices       = 10
	minSliceQueries = 20
)

// slice is a stretch of a run: the queries that ended in it, in order.
type slice struct {
	from, to time.Duration
	recs     []*record
}

// slicesOf splits a run's queries, ordered by completion, into slices of
// equal count; a slice spans from the previous slice's last completion
// (the run's start for the first) to its own, and the last one to the
// run's end.
func slicesOf(r *run) []slice {
	recs := make([]*record, len(r.records))
	for i := range r.records {
		recs[i] = &r.records[i]
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].end < recs[j].end })
	k := min(max(len(recs)/minSliceQueries, 1), maxSlices)
	out := make([]slice, k)
	var from time.Duration
	for i := range out {
		part := recs[i*len(recs)/k : (i+1)*len(recs)/k]
		out[i] = slice{from: from, to: r.wall, recs: part}
		if i < k-1 {
			out[i].to = part[len(part)-1].end
		}
		from = out[i].to
	}
	return out
}

// endToEndValues computes the end-to-end metrics of an untraced run.
// Throughput is the median over the run's slices; peak RSS is the
// largest sample of the whole run; the row rate is the rows the engine
// reports mounting per second of the run.
func endToEndValues(r *run, s setupResult) values {
	v := values{}
	v["setup_s"] = median(s.open)
	lat := durations(r.records, func(rc *record) (time.Duration, bool) { return rc.latency(), true })
	v["query_p50_ms"] = quantile(lat, 0.5) / float64(time.Millisecond)
	// The tail is reported only with at least ten samples beyond it.
	if len(lat) >= 1000 {
		v["query_p99_ms"] = quantile(lat, 0.99) / float64(time.Millisecond)
	}
	var rates []float64
	for _, sl := range slicesOf(r) {
		var ok float64
		for _, rc := range sl.recs {
			if rc.err == nil {
				ok++
			}
		}
		rates = append(rates, ratio(ok, (sl.to-sl.from).Seconds()))
	}
	var rows float64
	for i := range r.records {
		rows += float64(r.records[i].rowsMounted())
	}
	n := float64(len(r.records))
	v["throughput_qps"] = median(rates)
	if rows > 0 {
		v["rows_per_s"] = rows / r.wall.Seconds()
	}
	v["modeled_io_ms_per_query"] = ratio(ms(r.after.clock-r.before.clock), n)
	v["alloc_mb_per_query"] = ratio(float64(r.after.rt.allocBytes-r.before.rt.allocBytes)/mib, n)
	var peak int64
	for _, s := range r.rss {
		peak = max(peak, s.bytes)
	}
	v["peak_rss_mb"] = float64(peak) / mib
	return v
}

// qps is the rate of queries answered without error over the runs.
func qps(runs ...*run) float64 {
	var ok, secs float64
	for _, r := range runs {
		secs += r.wall.Seconds()
		for i := range r.records {
			if r.records[i].err == nil {
				ok++
			}
		}
	}
	return ratio(ok, secs)
}

// layerValues computes the per-layer metrics of a traced run. decodeRate
// is the decode probe's rows per second.
func layerValues(r *run, s setupResult, decodeRate float64) values {
	v := values{}
	n := float64(len(r.records))
	a, b := r.before, r.after
	us := float64(time.Microsecond)
	v["plan.prepare_us_p50"] = median(durations(r.records, func(rc *record) (time.Duration, bool) { return rc.prepare, rc.err == nil })) / us
	v["core.stage1_us_p50"] = median(durations(r.records, func(rc *record) (time.Duration, bool) { return rc.stage1, rc.err == nil })) / us
	var foi, pruned, notMounted, rowsMounted, s1io, s2io float64
	var stage2 time.Duration
	for i := range r.records {
		rc := &r.records[i]
		st := rc.stats
		foi += float64(st.FilesOfInterest + st.Mounts.PrunedFiles)
		pruned += float64(st.Mounts.PrunedFiles)
		notMounted += float64(st.Mounts.BytesNotMounted)
		rowsMounted += float64(rc.rowsMounted())
		s1io += ms(st.Stage1IO)
		s2io += ms(st.Stage2IO)
		if rc.ranStage2 {
			stage2 += rc.stage2
		}
	}
	v["core.files_of_interest_per_query"] = ratio(foi, n)
	v["core.stage1_modeled_io_ms_per_query"] = ratio(s1io, n)
	v["stats.pruned_files_per_query"] = ratio(pruned, n)
	v["stats.prune_ratio"] = ratio(pruned, foi)
	v["stats.bytes_not_mounted_mb"] = ratio(notMounted/mib, n)
	v["exec.stage2_ms_p50"] = median(durations(r.records, func(rc *record) (time.Duration, bool) { return rc.stage2, rc.ranStage2 })) / float64(time.Millisecond)
	v["exec.rows_mounted_per_query"] = ratio(rowsMounted, n)
	v["exec.stage2_rows_per_s"] = ratio(rowsMounted, stage2.Seconds())
	v["exec.stage2_modeled_io_ms_per_query"] = ratio(s2io, n)
	decodeMS := 1000 * ratio(rowsMounted, decodeRate)
	v["exec.operator_ms_per_query"] = ratio(max(ms(stage2)-decodeMS, 0), n)
	v["seismic.decode_rows_per_s"] = decodeRate

	m0, m1 := a.mounts, b.mounts
	v["mountsvc.flights"] = ratio(float64(m1.FlightsStarted-m0.FlightsStarted), n)
	v["mountsvc.single_flight_hits"] = ratio(float64(m1.SingleFlightHits-m0.SingleFlightHits), n)
	v["mountsvc.cache_serves"] = ratio(float64(m1.CacheServes-m0.CacheServes), n)
	v["mountsvc.peak_replay_mb"] = float64(m1.PeakReplayBytes) / mib
	v["mountsvc.spilled_mb"] = ratio(float64(m1.SpilledBytes-m0.SpilledBytes)/mib, n)
	v["mountsvc.spill_replay_reads"] = ratio(float64(m1.SpillReplayReads-m0.SpillReplayReads), n)
	var waits int64
	var waited time.Duration
	for name, ss := range m1.PerSession {
		prev := m0.PerSession[name]
		waits += ss.Waits - prev.Waits
		waited += ss.WaitTotal - prev.WaitTotal
	}
	v["admission.waits"] = ratio(float64(waits), n)
	v["admission.wait_ms_total"] = ms(waited)

	rc0, rc1 := a.results, b.results
	hits := float64(rc1.Hits - rc0.Hits + rc1.Riders - rc0.Riders)
	v["resultcache.hit_ratio"] = ratio(hits, hits+float64(rc1.Misses-rc0.Misses))
	v["resultcache.subsumption_hit_ratio"] = ratio(float64(rc1.SubsumptionHits-rc0.SubsumptionHits), float64(rc1.SubsumptionProbes-rc0.SubsumptionProbes))
	v["resultcache.riders"] = ratio(float64(rc1.Riders-rc0.Riders), n)
	v["resultcache.refilter_ms_total"] = ms(rc1.RefilterWall - rc0.RefilterWall)
	v["resultcache.demotions"] = ratio(float64(rc1.Demotions-rc0.Demotions), n)
	v["resultcache.promotions"] = ratio(float64(rc1.Promotions-rc0.Promotions), n)
	v["resultcache.invalidations"] = ratio(float64(rc1.Invalidations-rc0.Invalidations), n)

	c0, c1 := a.cache, b.cache
	ch := float64(c1.Hits - c0.Hits)
	v["cache.hit_ratio"] = ratio(ch, ch+float64(c1.Misses-c0.Misses))
	v["cache.evictions"] = ratio(float64(c1.Evictions-c0.Evictions), n)

	p0, p1 := a.pool, b.pool
	ph := float64(p1.Hits - p0.Hits)
	v["storage.pool_hit_ratio"] = ratio(ph, ph+float64(p1.Misses-p0.Misses))
	v["storage.pages_read"] = ratio(float64(p1.PagesRead-p0.PagesRead), n)
	v["storage.seeks"] = ratio(float64(p1.SeeksPayed-p0.SeeksPayed), n)

	v["ingest.metadata_ms"] = median(s.metadata)
	v["ingest.load_ms"] = median(s.load)
	v["ingest.index_ms"] = median(s.index)

	busy := (b.rt.totalCPU - a.rt.totalCPU) - (b.rt.idleCPU - a.rt.idleCPU)
	v["runtime.gc_cpu_share"] = ratio(b.rt.gcCPU-a.rt.gcCPU, busy)
	return v
}

// printMetrics writes one line per metric the values hold.
func printMetrics(w io.Writer, title string, defs []metricDef, v values, mark string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		val, ok := v[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-38s %14s %-12s\n", d.name, "n/a", d.unit)
			continue
		}
		line := fmt.Sprintf("  %-38s %14.4f %-12s", d.name, val, d.unit)
		if d.moves != "" {
			m := ""
			if mark != "" && strings.Contains(d.moves, mark) {
				m = " *"
			}
			line += " moves " + d.moves + m
		}
		fmt.Fprintln(w, line)
	}
}
