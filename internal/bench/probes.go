package bench

import (
	"fmt"

	dcdatalog "repro"
)

// ProbeReport runs the fixed tracking suite and reports how the
// memory-level probe machinery behaved: the tag lane's reject rate
// (directory walks cut short by the 1-byte tag), the audited-bucket
// key-skip rate (full-key compares eliminated after the first verified
// row), and the Bloom guard's skip rate. Anti-joins are always guarded
// and positive join probes only once their warm-up shows a low hit
// rate, so the recursive tracking queries mostly report no checks.
func ProbeReport(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Probe path: tag rejects, audited key skips, Bloom guards (tracking suite)",
		Header: []string{"Query", "Dataset", "Time",
			"TagReject", "KeySkip", "BloomSkip", "BloomChecks"},
		Notes: []string{
			"TagReject = tag-lane mismatches / occupied slots inspected",
			"KeySkip = full-key compares eliminated by the single-key bucket audit",
			"BloomSkip = guarded probes answered by the filter without touching the directory",
			"anti-joins are always guarded; join probes only after a miss-heavy 512-probe warm-up",
		},
	}
	for _, j := range trackingJobs(cfg) {
		m := run(j.ds, j.query.Source, j.query.Output, dcdatalog.WithWorkers(cfg.Workers))
		t.Rows = append(t.Rows, []string{
			j.query.Name, j.dsName, cell(m.seconds, m.note),
			pct(m.probe.TagRejectRate()),
			pct(m.probe.KeySkipRate()),
			pct(m.probe.BloomSkipRate()),
			fmt.Sprint(m.probe.BloomChecks),
		})
	}
	return t
}

// pct renders a ratio as a percentage with sensible precision.
func pct(r float64) string {
	return fmt.Sprintf("%.1f%%", 100*r)
}
