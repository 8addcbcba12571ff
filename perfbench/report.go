package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // sample counts and sources, printed but not in the JSON
}

func byKind(rounds []*round, k roundKind) []*round {
	var out []*round
	for _, r := range rounds {
		if r.kind == k {
			out = append(out, r)
		}
	}
	return out
}

func medianOf(rs []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// pooled returns the samples of every round, sorted.
func pooled(rs []*round, f func(*round) []int64) []int64 {
	var out []int64
	for _, r := range rs {
		out = append(out, f(r)...)
	}
	slices.Sort(out)
	return out
}

func percentileNote(xs []int64, q float64) string {
	return fmt.Sprintf("n=%d, %d beyond", len(xs), beyond(xs, q))
}

// peakLoadRatios returns the mean and the maximum over tenants of
// PeakLoad/L*. The mean is the gated metric: the maximum moves in
// steps of one PE load, and over ten seeds its quartiles spread by
// about a fifth of its median on ingest-rand and durable-skew.
func peakLoadRatios(r *round) (mean, worst float64) {
	n := 0
	for _, st := range r.stats {
		if st.LStar > 0 {
			x := float64(st.PeakLoad) / float64(st.LStar)
			mean += x
			worst = math.Max(worst, x)
			n++
		}
	}
	return mean / float64(max(n, 1)), worst
}

func migrationsPerKevent(r *round) float64 {
	var m int64
	for _, st := range r.stats {
		m += st.Realloc.Migrations
	}
	return float64(m) * 1000 / float64(r.events)
}

// endToEnd computes the user-visible metrics over the measured plain
// rounds: gated are BENCHMARK.json's end_to_end set, extra are printed
// only (README.md says why each is not gated).
func endToEnd(w *workload, rs []*round, l *ledger) (gated, extra []metric) {
	sub := pooled(rs, func(r *round) []int64 { return r.submitNs })
	reads := pooled(rs, func(r *round) []int64 { return r.readNs })
	n := fmt.Sprintf("median of %d rounds", len(rs))
	readSrc := "post-FlushAll read sweep"
	if w.ReadEvery > 0 {
		readSrc = fmt.Sprintf("every %dth Submit", w.ReadEvery)
	}
	gated = []metric{
		{"events_per_s", medianOf(rs, (*round).eventsPerS), "events/s", n},
		{"submit_p50_us", float64(quantile(sub, 0.50)) / 1e3, "us", percentileNote(sub, 0.50)},
		{"submit_p99_us", float64(quantile(sub, 0.99)) / 1e3, "us", percentileNote(sub, 0.99)},
		{"read_p50_us", float64(quantile(reads, 0.50)) / 1e3, "us", percentileNote(reads, 0.50) + ", " + readSrc},
		{"peak_load_ratio", medianOf(rs, func(r *round) float64 { m, _ := peakLoadRatios(r); return m }), "ratio", "mean over tenants of PeakLoad/L*"},
		{"heap_live_mb", medianOf(rs, func(r *round) float64 { return float64(r.heapLive) / (1 << 20) }), "MiB", n},
		{"setup_s", medianOf(rs, func(r *round) float64 { return float64(r.setupNs) / 1e9 }), "s", n},
	}
	extra = []metric{
		{"read_p99_us", float64(quantile(reads, 0.99)) / 1e3, "us", percentileNote(reads, 0.99)},
		{"read_p999_us", float64(quantile(reads, 0.999)) / 1e3, "us", percentileNote(reads, 0.999)},
		{"peak_load_ratio_max", medianOf(rs, func(r *round) float64 { _, m := peakLoadRatios(r); return m }), "ratio", "max over tenants of PeakLoad/L*"},
		{"migrations_per_kevent", medianOf(rs, migrationsPerKevent), "count", "Σ Realloc.Migrations per 1000 events"},
	}
	if w.Engine.Journal {
		extra = append(extra, metric{"recover_s", medianOf(rs, func(r *round) float64 { return float64(r.recoverNs) / 1e9 }), "s", n})
	}
	extra = append(extra, metric{"error_rate", float64(l.failed) / float64(max(l.attempted, 1)), "ratio",
		fmt.Sprintf("%d failed of %d attempted calls and checks", l.failed, l.attempted)})
	return gated, extra
}

// spanTotals aggregates the spans of the traced rounds.
type spanTotals struct {
	submitCalls, submitEvents, submitNs, submitSelfNs int64
	statsCalls                                        int64
	statsNs, flushNs                                  []int64
	applyCalls, applyEvents, applyNs                  int64
	batchNs, reallocNs, plainNs                       []int64
	snapNs                                            []int64
	restoreNs                                         int64
	passSubmitNs                                      []int64
}

func (t *spanTotals) add(spans []span) {
	child := make(map[uint64]int64)
	kind := make(map[uint64]spanKind)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		} else {
			kind[s.ID] = s.Kind
		}
	}
	for _, s := range spans {
		if s.Kind != spanRestore && kind[s.Parent] == spanRecover {
			continue // replayed by recovery, not by the live engine
		}
		switch s.Kind {
		case spanSubmit:
			t.submitCalls++
			t.submitEvents += s.Size
			t.submitNs += s.dur()
			t.submitSelfNs += s.dur() - child[s.ID]
			if s.Pass {
				t.passSubmitNs = append(t.passSubmitNs, s.dur())
			}
		case spanStats:
			t.statsCalls++
			t.statsNs = append(t.statsNs, s.dur())
		case spanFlush:
			t.flushNs = append(t.flushNs, s.dur())
		case spanApply:
			t.applyCalls++
			t.applyEvents += s.Size
			t.applyNs += s.dur()
			t.batchNs = append(t.batchNs, s.dur())
			if s.Realloc {
				t.reallocNs = append(t.reallocNs, s.dur())
			} else {
				t.plainNs = append(t.plainNs, s.dur())
			}
		case spanSnapshot:
			t.snapNs = append(t.snapNs, s.dur())
		case spanRestore:
			t.restoreNs += s.dur()
		}
	}
}

func perEvent(ns, events int64) float64 {
	if events == 0 {
		return 0
	}
	return float64(ns) / float64(events)
}

// perLayer computes the per-layer metrics. Span metrics come from st,
// the spans of the traced rounds; counters the engine keeps itself,
// resource use and recovery come from the untraced rounds of the same
// run. Counts are per round. A layer the workload does not run
// reports 0.
func perLayer(w *workload, rounds []*round, st *spanTotals) []metric {
	plain, traced := byKind(rounds, plainRound), byKind(rounds, tracedRound)
	for _, xs := range [][]int64{st.statsNs, st.flushNs, st.batchNs, st.reallocNs, st.plainNs, st.snapNs, st.passSubmitNs} {
		slices.Sort(xs)
	}
	nt := float64(max(len(traced), 1))
	perRound := func(n int64) float64 { return float64(n) / nt }
	med := func(f func(*round) float64) float64 { return medianOf(plain, f) }
	events := func(r *round) float64 { return float64(r.events) }

	obsRatio, obsIQR := obsOverhead(rounds)
	var walNs, walCount, fsNs, fsCount int64
	for _, r := range plain {
		walNs, walCount = walNs+r.wal.appendNs, walCount+r.wal.appendCount
		fsNs, fsCount = fsNs+r.wal.fsyncNs, fsCount+r.wal.fsyncCount
	}
	restore := 0.0
	if w.Engine.Journal {
		restore = perRound(st.restoreNs)
	}
	return []metric{
		{"engine.submit_calls", perRound(st.submitCalls), "count", "per round"},
		{"engine.submit_ns_per_event", perEvent(st.submitNs, st.submitEvents), "ns/event", ""},
		{"engine.submit_self_ns_per_event", perEvent(st.submitSelfNs, st.submitEvents), "ns/event", "Submit span minus its core and snapshot children"},
		{"engine.stats_calls", perRound(st.statsCalls), "count", "per round"},
		{"engine.stats_ns_p99", float64(quantile(st.statsNs, 0.99)), "ns", percentileNote(st.statsNs, 0.99)},
		{"engine.flush_ns_p99", float64(quantile(st.flushNs, 0.99)), "ns", percentileNote(st.flushNs, 0.99)},
		{"engine.shard_peak_queue_max", med(shardPeakQueue), "count", "ShardStats"},
		{"engine.shard_events_max_over_min", med(shardSkew), "ratio", "ShardStats, shards that applied events"},
		{"core.apply_calls", perRound(st.applyCalls), "count", "per round"},
		{"core.apply_ns_per_event", perEvent(st.applyNs, st.applyEvents), "ns/event", ""},
		{"core.batch_ns_p50", float64(quantile(st.batchNs, 0.50)), "ns", percentileNote(st.batchNs, 0.50)},
		{"core.batch_ns_p99", float64(quantile(st.batchNs, 0.99)), "ns", percentileNote(st.batchNs, 0.99)},
		{"core.realloc_batches", perRound(int64(len(st.reallocNs))), "count", "per round"},
		{"core.realloc_batch_ns_p50", float64(quantile(st.reallocNs, 0.50)), "ns", percentileNote(st.reallocNs, 0.50)},
		{"core.plain_batch_ns_p50", float64(quantile(st.plainNs, 0.50)), "ns", percentileNote(st.plainNs, 0.50)},
		{"core.reallocations", med(func(r *round) float64 { return float64(sumRealloc(r).Reallocations) }), "count", "per round"},
		{"core.migrations", med(func(r *round) float64 { return float64(sumRealloc(r).Migrations) }), "count", "per round"},
		{"core.moved_pes", med(func(r *round) float64 { return float64(sumRealloc(r).MovedPEs) }), "count", "per round"},
		{"migrations_per_kevent", med(migrationsPerKevent), "count", "Σ Realloc.Migrations per 1000 events"},
		{"snapshot.encode_calls", perRound(int64(len(st.snapNs))), "count", "per round"},
		{"snapshot.encode_ns_p50", float64(quantile(st.snapNs, 0.50)), "ns", percentileNote(st.snapNs, 0.50)},
		{"snapshot.encode_ns_p99", float64(quantile(st.snapNs, 0.99)), "ns", percentileNote(st.snapNs, 0.99)},
		{"snapshot.bytes_per_snapshot", med(func(r *round) float64 { return mean(r.wal.snapBytes, r.wal.snapTenants) }), "B", "mean latest snapshot record per tenant"},
		{"snapshot.segments_truncated", med(func(r *round) float64 { return float64(r.wal.truncated) }), "count", "per round"},
		{"wal.appends", med(func(r *round) float64 { return float64(r.wal.appends) }), "count", "per round"},
		{"wal.append_ns_mean", mean(walNs, walCount), "ns", ""},
		{"wal.fsyncs", med(func(r *round) float64 { return float64(r.wal.fsyncs) }), "count", "per round"},
		{"wal.fsync_ns_mean", mean(fsNs, fsCount), "ns", ""},
		{"wal.bytes_per_event", med(func(r *round) float64 { return float64(r.wal.appendBytes) / events(r) }), "B/event", ""},
		{"wal.bytes_on_disk", med(func(r *round) float64 { return float64(r.wal.onDisk) }), "B", "journal directory after FlushAll"},
		{"recovery.records_replayed", med(func(r *round) float64 { return float64(r.recovery.RecordsReplayed) }), "count", ""},
		{"recovery.snapshots_restored", med(func(r *round) float64 { return float64(r.recovery.SnapshotsRestored) }), "count", ""},
		{"recovery.records_skipped", med(func(r *round) float64 { return float64(r.recovery.RecordsSkipped) }), "count", ""},
		{"recovery.restore_ns_total", restore, "ns", "Restore spans during RecoverEngine, per round"},
		{"recovery.recover_s", med(func(r *round) float64 { return float64(r.recoverNs) / 1e9 }), "s", "RecoverEngine wall time"},
		{"placement.passes", med(func(r *round) float64 { return float64(r.rebal.Passes) }), "count", "per round"},
		{"placement.moves", med(func(r *round) float64 { return float64(r.rebal.Moves) }), "count", "per round"},
		{"placement.violations", med(func(r *round) float64 { return float64(len(r.rebal.Violations)) }), "count", ""},
		{"placement.pass_submit_ns_p50", float64(quantile(st.passSubmitNs, 0.50)), "ns", percentileNote(st.passSubmitNs, 0.50)},
		{"obs.overhead_ratio", obsRatio, "ratio", "events_per_s detached / attached, paired rounds"},
		{"obs.overhead_ratio_iqr", obsIQR, "ratio", "spread of the paired ratios"},
		{"process.alloc_bytes_per_event", med(func(r *round) float64 { return float64(r.proc.allocBytes) / events(r) }), "B/event", "runtime/metrics"},
		{"process.allocs_per_event", med(func(r *round) float64 { return float64(r.proc.allocObjects) / events(r) }), "count", "runtime/metrics"},
		{"process.gc_cycles", med(func(r *round) float64 { return float64(r.proc.gcCycles) }), "count", "per round"},
		{"process.cpu_ns_per_event", med(func(r *round) float64 { return float64(r.proc.cpuNs) / events(r) }), "ns/event", "getrusage user+system"},
		{"trace.overhead_ratio", medianOf(plain, (*round).eventsPerS) / medianOf(traced, (*round).eventsPerS), "ratio", "events_per_s untraced / traced"},
	}
}

func sumRealloc(r *round) (s struct{ Reallocations, Migrations, MovedPEs int64 }) {
	for _, st := range r.stats {
		s.Reallocations += int64(st.Realloc.Reallocations)
		s.Migrations += st.Realloc.Migrations
		s.MovedPEs += st.Realloc.MovedPEs
	}
	return s
}

func shardPeakQueue(r *round) float64 {
	peak := 0
	for _, s := range r.shards {
		peak = max(peak, s.PeakQueued)
	}
	return float64(peak)
}

func shardSkew(r *round) float64 {
	var lo, hi int64 = math.MaxInt64, 0
	for _, s := range r.shards {
		if s.Events > 0 {
			lo, hi = min(lo, s.Events), max(hi, s.Events)
		}
	}
	if hi == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// obsOverhead pairs each metrics-detached round with the plain round
// before it and returns the median ratio of their throughputs and its
// interquartile range; 0, 0 when the run has no such pairs.
func obsOverhead(rounds []*round) (ratio, iqr float64) {
	var xs []float64
	var last *round
	for _, r := range rounds {
		switch r.kind {
		case plainRound:
			last = r
		case noObsRound:
			if last != nil {
				xs = append(xs, r.eventsPerS()/last.eventsPerS())
			}
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	q1, q3 := quartiles(xs)
	return median(xs), q3 - q1
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(out, "  %-34s %16.6g %-9s%s\n", m.Name, m.Value, m.Unit, note)
	}
}
