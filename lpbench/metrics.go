package main

import (
	"math"
	"sort"
)

// metrics is the result line's metric set: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func (s *session) metrics() map[string]metric {
	if s.tr == nil {
		f := s.probe.factor()
		return s.endToEnd(f, f*(1-s.stolen.cold), f*(1-s.stolen.hit))
	}
	ph := s.cold.phases
	phaseSum := ph.AllocSeconds + ph.PriceSeconds + ph.MergeSeconds + ph.DaemonSeconds
	c := s.counts()
	t := s.totals
	schedHitMS := s.schedHitUS / 1e3
	return map[string]metric{
		"sim.alloc_s":           {ph.AllocSeconds, "s"},
		"sim.price_s":           {ph.PriceSeconds, "s"},
		"sim.merge_s":           {ph.MergeSeconds, "s"},
		"sim.daemon_s":          {ph.DaemonSeconds, "s"},
		"sim.other_s":           {s.cold.spanSum - phaseSum, "s"},
		"sim.phase_cover":       {ratio(phaseSum, s.cold.spanSum), "share"},
		"sim.epochs":            {float64(c.Epochs), "count"},
		"sim.us_per_epoch":      {ratio(s.cold.spanSum*1e6, float64(c.Epochs)), "us"},
		"sim.epoch_full_us":     {s.epoch.FullSeconds * 1e6, "us"},
		"sim.epoch_quiet_us":    {s.epoch.QuiescentSeconds * 1e6, "us"},
		"vm.faults_4k":          {float64(c.Faults[0]), "count"},
		"vm.faults_2m":          {float64(c.Faults[1]), "count"},
		"vm.faults_1g":          {float64(c.Faults[2]), "count"},
		"ibs.samples":           {float64(c.IBS), "count"},
		"runcache.requested":    {float64(t.Requested), "count"},
		"runcache.runs":         {float64(t.Runs), "count"},
		"runcache.mem_hits":     {float64(t.Hits), "count"},
		"runcache.disk_hits":    {float64(t.DiskHits), "count"},
		"runcache.dedup_share":  {ratio(float64(t.Requested-t.Runs), float64(t.Requested)), "share"},
		"runcache.hit_us":       {s.schedHitUS, "us"},
		"serve.hit_overhead_us": {(s.hit.p50 - schedHitMS) * 1e3, "us"},
		"serve.shed":            {float64(s.shed), "count"},
		"serve.failed":          {float64(s.httpFailed), "count"},
		"store.records":         {float64(c.Records), "count"},
		"store.log_bytes":       {float64(s.logBytes), "bytes"},
		"store.recover_ms":      {s.recoverMS, "ms"},
		"trace.overhead_pct":    {100 * (s.cold.wall - s.untracedWall) / s.untracedWall, "%"},
	}
}

// endToEnd is the end-to-end metric set, with the times of each phase
// multiplied by that phase's scale (host.go); scales of 1 give the
// clock's readings.
func (s *session) endToEnd(setup, cold, hit float64) map[string]metric {
	return map[string]metric{
		"setup_s":      {percentile(s.setupS, 50) * setup, "s"},
		"wall_s":       {s.cold.wall * cold, "s"},
		"miss_p50_ms":  {percentile(s.cold.misses, 50) * cold, "ms"},
		"miss_p90_ms":  {percentile(s.cold.misses, 90) * cold, "ms"},
		"hit_p50_ms":   {s.hit.p50 * hit, "ms"},
		"hit_p90_ms":   {s.hit.p90 * hit, "ms"},
		"hit_rps":      {s.hit.rps / hit, "1/s"},
		"batch_p50_ms": {s.hit.batchP50 * hit, "ms"},
		"peak_rss_mb":  {s.peakRSSMB, "MB"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank p-th percentile (0 for no samples).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}
