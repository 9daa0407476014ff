package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLevels are the percentiles a timing may report as its tail, highest
// first.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// tailPercentile is the highest percentile with at least ten samples
// beyond it, so a tail is never read off fewer than ten observations. It
// returns 50 when even p75 has fewer than ten samples above it.
func tailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty slice). xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// timing is one latency population, in milliseconds.
type timing []float64

func (t timing) p50() float64 { return percentile(t, 50) }

// tail returns the population's tail percentile by the ten-beyond rule
// and the percentile it used.
func (t timing) tail() (float64, float64) {
	p := tailPercentile(len(t))
	return percentile(t, p), p
}

// quartiles returns the first, second and third quartiles by the
// exclusive method of Python's statistics.quantiles(n=4), which the
// acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// Python's integer arithmetic, clamp and all.
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one named, unit-carrying figure of a run. N is the sample
// count behind a timing (0 for counts and ratios); Pct names the
// percentile a tail timing actually used.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Pct   float64 `json:"pct,omitempty"`
}

// metrics keeps figures in insertion order for printing.
type metrics struct {
	names []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name string, v metric) {
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = v
}

func (ms *metrics) val(name string, value float64, unit string) {
	ms.set(name, metric{Value: value, Unit: unit})
}

// p50 records a population's median under name.
func (ms *metrics) p50(name string, t timing) {
	ms.set(name, metric{Value: t.p50(), Unit: "ms", N: len(t), Pct: 50})
}

// tail records a population's tail under name (named for p99); when the
// run holds fewer than 1,000 samples the value is the highest percentile
// the ten-beyond rule allows, and Pct says which.
func (ms *metrics) tail(name string, t timing) {
	v, p := t.tail()
	ms.set(name, metric{Value: v, Unit: "ms", N: len(t), Pct: p})
}

func (ms *metrics) print(w func(string, ...any)) {
	for _, name := range ms.names {
		m := ms.m[name]
		line := fmt.Sprintf("%-32s %14.4f %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("  n=%d", m.N)
			if m.Pct != 0 && m.Pct != 50 {
				line += fmt.Sprintf(" p%g", m.Pct)
			}
		}
		w("%s\n", line)
	}
}
