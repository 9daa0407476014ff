// Command bench regenerates the paper's tables and figures on scaled
// datasets:
//
//	bench -exp all            # everything
//	bench -exp table2         # one experiment
//	bench -exp fig9a -workers 8 -scale 2
//	bench -exp table2 -cpuprofile cpu.out -mutexprofile mtx.out
//	bench -setup              # cold vs warm setup time (prepared base)
//
// Experiments: table2, table3, table4, fig1, fig3, fig8, fig9a, fig9b,
// probes (tag-reject / key-skip / Bloom-skip rates on the tracking suite),
// ivm (materialized-view incremental refresh vs full recompute across
// delta sizes on the TC tracking cell), demand (magic-set rewrite on
// vs off on the bound point-query cells, interleaved A/B).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the exit code out so the profile-writing defers run;
// os.Exit in main would discard them.
func realMain() int {
	exp := flag.String("exp", "all", "experiment to run: all, table2, table3, table4, fig1, fig3, fig8, fig9a, fig9b, probes, ivm, demand")
	scale := flag.Float64("scale", 1, "dataset scale multiplier")
	workers := flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS, min 4)")
	seed := flag.Int64("seed", 42, "generator seed")
	benchjson := flag.String("benchjson", "", "run the fixed tracking suite (TC, CC, SSSP, SG, hub-skewed CC at 1/4/8/16 workers) and write JSON to this file ('-' = stdout)")
	setup := flag.Bool("setup", false, "measure cold vs warm setup time (prepared-base index cache) over the tracking suite")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	mutexfrac := flag.Int("mutexfrac", 5, "mutex profiling sample rate (1 in N contention events; 0 disables)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(*mutexfrac)
		defer func() {
			f, err := os.Create(*mutexprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // flush unreachable objects out of the live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	cfg := bench.Config{Scale: *scale, Workers: *workers, Seed: *seed}

	if *setup {
		bench.SetupReport(cfg).Render(os.Stdout)
		return 0
	}

	if *benchjson != "" {
		points := bench.Trajectory(cfg)
		out := os.Stdout
		if *benchjson != "-" {
			f, err := os.Create(*benchjson)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer f.Close()
			out = f
		}
		if err := bench.WriteTrajectoryJSON(out, points); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	runners := map[string]func() []*bench.Table{
		"table2": func() []*bench.Table { return []*bench.Table{bench.Table2(cfg)} },
		"table3": func() []*bench.Table { return []*bench.Table{bench.Table3(cfg)} },
		"table4": func() []*bench.Table { return []*bench.Table{bench.Table4(cfg)} },
		"fig1":   func() []*bench.Table { return []*bench.Table{bench.Figure1(cfg)} },
		"fig3":   func() []*bench.Table { return []*bench.Table{bench.Figure3()} },
		"fig8":   func() []*bench.Table { return []*bench.Table{bench.Figure8(cfg)} },
		"fig9a":  func() []*bench.Table { return bench.Figure9a(cfg) },
		"fig9b":  func() []*bench.Table { return []*bench.Table{bench.Figure9b(cfg)} },
		"probes": func() []*bench.Table { return []*bench.Table{bench.ProbeReport(cfg)} },
		"ivm":    func() []*bench.Table { return []*bench.Table{bench.IvmReport(cfg)} },
		"demand": func() []*bench.Table { return []*bench.Table{bench.DemandReport(cfg)} },
	}
	order := []string{"fig3", "fig1", "table2", "table3", "table4", "fig8", "fig9a", "fig9b", "probes", "ivm", "demand"}

	var selected []string
	switch *exp {
	case "all":
		selected = order
	default:
		for _, name := range strings.Split(*exp, ",") {
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (choose from %s)\n", name, strings.Join(order, ", "))
				return 2
			}
			selected = append(selected, name)
		}
	}
	for _, name := range selected {
		for _, t := range runners[name]() {
			t.Render(os.Stdout)
		}
	}
	return 0
}
