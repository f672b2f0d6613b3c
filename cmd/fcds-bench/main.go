// Command fcds-bench regenerates every table and figure of the paper's
// evaluation (Section 7) plus the Table 1 error analysis (Section 6).
//
// Usage:
//
//	fcds-bench <experiment> [-full] [-k N]
//
// Experiments: figure1, figure5a, figure5b, figure6, figure7, figure8,
// table1, table2, quantiles-error, sketches, all.
//
// Output is TSV on stdout (one header line, then rows), matching the
// DataSketches characterization suite's SpeedProfile/AccuracyProfile
// schema where applicable. By default the sweeps are scaled to finish
// in minutes on a small machine; pass -full for the paper-scale
// parameters (hours). The system's own numbers come from benchmark/.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"github.com/fcds/fcds/internal/adversary"
	"github.com/fcds/fcds/internal/characterization"
)

// experiment is one subcommand: its name, its usage line and what it
// runs. full selects the paper-scale parameters; k is -k.
type experiment struct {
	name, help string
	run        func(full bool, k int)
}

// experiments is the one list the dispatcher, the usage text and `all`
// read; `all` runs it in this order.
var experiments = []experiment{
	{"figure1", "scalability: concurrent vs lock-based, update-only", func(full bool, _ int) { figure1(full) }},
	{"figure5a", "accuracy pitchfork, no eager propagation (e=1.0)", func(full bool, k int) { figure5(full, 1.0, k) }},
	{"figure5b", "accuracy pitchfork, eager propagation (e=0.04)", func(full bool, k int) { figure5(full, 0.04, k) }},
	{"figure6", "write-only throughput vs stream size", figure6},
	{"figure7", "mixed workload: writers + background readers", figure7},
	{"figure8", "eager vs no-eager speedup", figure8},
	{"table1", "Θ error analysis (adversaries; closed-form/numerical/MC)", func(full bool, _ int) { table1(full) }},
	{"table2", "throughput/accuracy tradeoff vs k", func(full bool, _ int) { table2(full) }},
	{"quantiles-error", "§6.2 relaxed quantiles bound vs attack", func(full bool, _ int) { quantilesError(full) }},
	{"sketches", "Θ vs Quantiles vs HLL under the framework (extension)", func(full bool, _ int) { sketches(full) }},
}

func main() { os.Exit(run(os.Args[1:])) }

// run dispatches one command line and returns the exit code: 2 for a
// missing or unknown experiment.
func run(args []string) int {
	var todo []experiment
	if len(args) > 0 {
		todo = pick(args[0])
	}
	if todo == nil {
		usage(os.Stderr)
		return 2
	}
	fs := flag.NewFlagSet(args[0], flag.ExitOnError)
	full := fs.Bool("full", false, "paper-scale parameters (much slower)")
	k := fs.Int("k", 4096, "global sketch nominal entries")
	_ = fs.Parse(args[1:])
	for _, e := range todo {
		e.run(*full, *k)
		if len(todo) > 1 {
			fmt.Println()
		}
	}
	return 0
}

// pick returns the experiments a command name selects: every one for
// "all", the named one otherwise, nil for an unknown name.
func pick(name string) []experiment {
	if name == "all" {
		return experiments
	}
	for _, e := range experiments {
		if e.name == name {
			return []experiment{e}
		}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: fcds-bench <experiment> [-full] [-k N]\nexperiments:")
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-16s %s\n", e.name, e.help)
	}
	fmt.Fprintf(w, "  %-16s %s\n", "all", "run every experiment above, in this order (scaled)")
}

// figure1: scalability of concurrent vs lock-based Θ sketch, b=1.
func figure1(full bool) {
	n := uint64(1 << 21)
	trials := 3
	threads := []int{1, 2, 4, 8}
	if full {
		n = 1 << 24
		trials = 16
		threads = []int{1, 2, 4, 8, 12, 16, 24, 32}
	}
	fmt.Println("# Figure 1: update-only scalability, k=4096, b=1, concurrent vs lock-based")
	fmt.Println("experiment\tthreads\tMops_sec")
	conc := characterization.ScalabilityProfile(characterization.ScalabilityConfig{
		Threads: threads, N: n, Trials: trials,
		Build: func(th int) characterization.Runner {
			return &characterization.ConcurrentThetaRunner{
				K: 4096, Writers: th, MaxError: 1.0, BufferSize: 1,
			}
		},
	})
	for _, p := range conc {
		fmt.Printf("concurrent\t%d\t%.2f\n", p.Threads, p.MopsSec)
	}
	lock := characterization.ScalabilityProfile(characterization.ScalabilityConfig{
		Threads: threads, N: n, Trials: trials,
		Build: func(th int) characterization.Runner {
			return &characterization.LockThetaRunner{K: 4096, Threads: th}
		},
	})
	for _, p := range lock {
		fmt.Printf("lock-based\t%d\t%.2f\n", p.Threads, p.MopsSec)
	}
}

// figure5: accuracy pitchfork (5a: e=1.0 no eager, 5b: e=0.04).
func figure5(full bool, e float64, k int) {
	cfg := characterization.AccuracyConfig{
		MinLgU: 7, MaxLgU: 17, PPO: 2,
		Trials: characterization.TaperedTrials(256, 16, 1<<9, 1<<17),
	}
	if full {
		cfg.MaxLgU = 23
		cfg.PPO = 4
		cfg.Trials = characterization.TaperedTrials(4096, 64, 1<<10, 1<<23)
	}
	label := "5b (eager, e=0.04)"
	if e >= 1 {
		label = "5a (no eager, e=1.0)"
	}
	fmt.Printf("# Figure %s: concurrent Θ accuracy pitchfork, k=%d\n", label, k)
	fmt.Println("InU\tTrials\tMeanRE\tQ01\tQ25\tMedian\tQ75\tQ99")
	pts := characterization.AccuracyProfile(
		&characterization.ConcurrentThetaAccuracy{K: k, MaxError: e}, cfg)
	for _, p := range pts {
		fmt.Printf("%d\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\n",
			p.InU, p.Trials, p.Mean, p.Q01, p.Q25, p.Median, p.Q75, p.Q99)
	}
}

func speedCfg(full bool) characterization.SpeedConfig {
	cfg := characterization.SpeedConfig{
		MinLgU: 5, MaxLgU: 20, PPO: 2,
		Trials: characterization.TaperedTrials(64, 2, 1<<8, 1<<20),
	}
	if full {
		cfg.MaxLgU = 23
		cfg.PPO = 4
		cfg.Trials = characterization.TaperedTrials(1<<18, 16, 1<<6, 1<<23)
	}
	return cfg
}

// figure6: write-only throughput vs stream size.
func figure6(full bool, k int) {
	cfg := speedCfg(full)
	fmt.Printf("# Figure 6: write-only workload, k=%d, e=0.04 (nS/u per InU)\n", k)
	fmt.Println("curve\tInU\tTrials\tnS_u")
	writers := []int{1, 4, 8, 12}
	if !full {
		writers = []int{1, 2, 4}
	}
	for _, w := range writers {
		pts := characterization.SpeedProfile(&characterization.ConcurrentThetaRunner{
			K: k, Writers: w, MaxError: 0.04,
		}, cfg)
		for _, p := range pts {
			fmt.Printf("concurrent-%dw\t%d\t%d\t%.2f\n", w, p.InU, p.Trials, p.NsPerUpdate)
		}
	}
	for _, th := range []int{1, writers[len(writers)-1]} {
		pts := characterization.SpeedProfile(&characterization.LockThetaRunner{
			K: k, Threads: th,
		}, cfg)
		for _, p := range pts {
			fmt.Printf("lock-%dt\t%d\t%d\t%.2f\n", th, p.InU, p.Trials, p.NsPerUpdate)
		}
	}
}

// figure7: mixed read/write workload (10 background readers, 1ms pause).
func figure7(full bool, k int) {
	cfg := speedCfg(full)
	readers := 10
	fmt.Printf("# Figure 7: mixed workload, k=%d, %d background readers (1ms pause)\n", k, readers)
	fmt.Println("curve\tInU\tTrials\tnS_u")
	for _, w := range []int{1, 2} {
		pts := characterization.SpeedProfile(
			characterization.NewMixedThetaRunner(true, k, w, readers, time.Millisecond, 0.04), cfg)
		for _, p := range pts {
			fmt.Printf("concurrent-%dw\t%d\t%d\t%.2f\n", w, p.InU, p.Trials, p.NsPerUpdate)
		}
		pts = characterization.SpeedProfile(
			characterization.NewMixedThetaRunner(false, k, w, readers, time.Millisecond, 0.04), cfg)
		for _, p := range pts {
			fmt.Printf("lock-%dw\t%d\t%d\t%.2f\n", w, p.InU, p.Trials, p.NsPerUpdate)
		}
	}
}

// figure8: eager vs no-eager speedup for small streams.
func figure8(full bool, k int) {
	cfg := characterization.SpeedConfig{
		MinLgU: 3, MaxLgU: 14, PPO: 2,
		Trials: characterization.TaperedTrials(256, 8, 1<<6, 1<<14),
	}
	if full {
		cfg.Trials = characterization.TaperedTrials(1<<16, 64, 1<<6, 1<<14)
		cfg.PPO = 4
	}
	fmt.Printf("# Figure 8: eager (e=0.04) vs no-eager (e=1.0) speedup, k=%d\n", k)
	fmt.Println("InU\tspeedup")
	eager := characterization.SpeedProfile(&characterization.ConcurrentThetaRunner{
		K: k, Writers: 1, MaxError: 0.04,
	}, cfg)
	noEager := characterization.SpeedProfile(&characterization.ConcurrentThetaRunner{
		K: k, Writers: 1, MaxError: 1.0,
	}, cfg)
	for _, s := range characterization.Speedup(noEager, eager) {
		fmt.Printf("%d\t%.2f\n", s.InU, s.Speedup)
	}
}

// table1: Θ error analysis under adversaries.
func table1(full bool) {
	trials, steps := 200000, 600
	if full {
		trials, steps = 2000000, 1200
	}
	p := adversary.Table1Defaults
	res := adversary.ComputeTable1(p, trials, steps, 0xfcd5)
	fmt.Printf("# Table 1: Θ sketch error analysis, r=%d, k=2^10, n=2^15\n", p.R)
	fmt.Println("row\tmethod\texpectation\tRSE")
	prt := func(row, method string, a adversary.ThetaAnalysis) {
		fmt.Printf("%s\t%s\t%.1f\t%.4f\n", row, method, a.Expectation, a.RSE)
	}
	prt("sequential", "closed-form", res.SequentialClosed)
	prt("sequential", "numerical", res.SequentialNumerical)
	prt("strong-adversary", "numerical", res.StrongNumerical)
	prt("strong-adversary", "monte-carlo", res.StrongMonteCarlo)
	prt("weak-adversary", "numerical", res.WeakNumerical)
	prt("weak-adversary", "monte-carlo", res.WeakMonteCarlo)
	prt("weak-adversary", "closed-form", res.WeakClosed)
	fmt.Printf("# paper: sequential E=n=32768 RSE<=0.0313; strong E~32604 (0.995n) RSE<=0.038; weak E=n(k-1)/(k+r-1)=%.0f RSE<=0.0626\n",
		float64(p.N)*float64(p.K-1)/float64(p.K+p.R-1))
}

// table2: performance vs accuracy as a function of k.
func table2(full bool) {
	speedCfg := characterization.SpeedConfig{
		MinLgU: 8, MaxLgU: 20, PPO: 2,
		Trials: characterization.TaperedTrials(32, 2, 1<<8, 1<<20),
	}
	accCfg := characterization.AccuracyConfig{
		MinLgU: 7, MaxLgU: 17, PPO: 2,
		Trials: characterization.TaperedTrials(128, 16, 1<<9, 1<<17),
	}
	if full {
		speedCfg.MaxLgU, accCfg.MaxLgU = 23, 23
		speedCfg.Trials = characterization.TaperedTrials(1<<14, 16, 1<<8, 1<<23)
		accCfg.Trials = characterization.TaperedTrials(4096, 64, 1<<9, 1<<23)
	}
	fmt.Println("# Table 2: performance vs accuracy as a function of k (concurrent vs lock-based, 1 writer)")
	fmt.Println("k\tthpt_crossing_point\tmax_median_err\tmax_q99_err")
	for _, k := range []int{256, 1024, 4096} {
		conc := characterization.SpeedProfile(&characterization.ConcurrentThetaRunner{
			K: k, Writers: 1, MaxError: 0.04,
		}, speedCfg)
		lock := characterization.SpeedProfile(&characterization.LockThetaRunner{
			K: k, Threads: 1,
		}, speedCfg)
		crossing := characterization.CrossingPoint(conc, lock)
		acc := characterization.AccuracyProfile(
			&characterization.ConcurrentThetaAccuracy{K: k, MaxError: 0.04}, accCfg)
		var maxMed, maxQ99 float64
		for _, p := range acc {
			if m := math.Abs(p.Median); m > maxMed {
				maxMed = m
			}
			if q := max(math.Abs(p.Q01), math.Abs(p.Q99)); q > maxQ99 {
				maxQ99 = q
			}
		}
		fmt.Printf("%d\t%d\t%.2f\t%.2f\n", k, crossing, maxMed, maxQ99)
	}
	fmt.Println("# paper: k=256: 15000/0.16/0.27; k=1024: 100000/0.05/0.13; k=4096: 700000/0.03/0.05")
}

// quantilesError: §6.2 relaxed quantiles bound vs a real attack.
func quantilesError(full bool) {
	trials := 20
	if full {
		trials = 200
	}
	fmt.Println("# §6.2: relaxed quantiles — worst attack error vs ε_r = ε + r/n − rε/n (k=128)")
	fmt.Println("n\tr\tphi\tworst_err\teps_seq\teps_relaxed")
	for _, n := range []int{1000, 10000, 100000} {
		for _, r := range []int{10, 100} {
			res := adversary.AttackQuantiles(128, n, r, 0.5, trials, 7)
			fmt.Printf("%d\t%d\t%.2f\t%.4f\t%.4f\t%.4f\n",
				res.N, res.R, res.Phi, res.WorstError, res.EpsSeq, res.EpsRelaxed)
		}
	}
}

// sketches: the three framework instantiations under one sweep — not a
// paper figure, but the natural cross-check of §8's claim that the
// framework generalises beyond Θ.
func sketches(full bool) {
	cfg := characterization.SpeedConfig{
		MinLgU: 8, MaxLgU: 18, PPO: 1,
		Trials: characterization.TaperedTrials(16, 2, 1<<9, 1<<18),
	}
	if full {
		cfg.MaxLgU = 22
		cfg.PPO = 2
		cfg.Trials = characterization.TaperedTrials(256, 8, 1<<9, 1<<22)
	}
	fmt.Println("# Extension: framework instantiations side by side (2 writers)")
	fmt.Println("curve\tInU\tTrials\tnS_u")
	runners := []characterization.Runner{
		&characterization.ConcurrentThetaRunner{K: 4096, Writers: 2, MaxError: 0.04},
		&characterization.ConcurrentQuantilesRunner{K: 128, Writers: 2},
		&characterization.ConcurrentHLLRunner{Precision: 12, Writers: 2},
	}
	for _, r := range runners {
		for _, p := range characterization.SpeedProfile(r, cfg) {
			fmt.Printf("%s\t%d\t%d\t%.2f\n", r.Name(), p.InU, p.Trials, p.NsPerUpdate)
		}
	}
}
