package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// loadRecords reads result lines (as -record writes them) from files.
func loadRecords(paths []string) ([]result, error) {
	var out []result
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 4<<20)
		for n := 1; sc.Scan(); n++ {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var r result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: %w", p, n, err)
			}
			out = append(out, r)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

type series map[string]map[string][]float64 // workload -> metric -> one value per run

func group(rs []result) (series, int) {
	s, incorrect := make(series), 0
	for _, r := range rs {
		if !r.Correct {
			incorrect++
		}
		if s[r.Workload] == nil {
			s[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s, incorrect
}

// verdict is one row of the comparison.
type verdict struct {
	workload, metric       string
	base, change           [3]float64 // q1, median, q3
	nBase, nChange         int
	worse, spread, bound   float64 // shares of the base median
	breach, unresolved, ok bool
}

// compareSets judges change against base for every (workload, metric)
// pair both sets hold. worse is how much the change's median is worse
// than the base's in the metric's direction; a pair whose own
// run-to-run spread (interquartile range over median, the wider of the
// two sets) exceeds the bound is unresolved, not unchanged.
func compareSets(base, change series) []verdict {
	var out []verdict
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				b, c := base[w.name][d.name], change[w.name][d.name]
				if len(b) == 0 || len(c) == 0 {
					continue
				}
				v := verdict{workload: w.name, metric: d.name, nBase: len(b), nChange: len(c), bound: d.bound}
				v.base[0], v.base[1], v.base[2] = quartiles(b)
				v.change[0], v.change[1], v.change[2] = quartiles(c)
				v.worse = (v.change[1] - v.base[1]) / math.Abs(v.base[1])
				if d.better == "higher" {
					v.worse = -v.worse
				}
				v.spread = math.Max((v.base[2]-v.base[0])/math.Abs(v.base[1]), (v.change[2]-v.change[0])/math.Abs(v.change[1]))
				if v.bound > 0 {
					v.breach = v.worse > v.bound
					v.unresolved = !v.breach && v.spread > v.bound
				}
				v.ok = !v.breach && !v.unresolved
				out = append(out, v)
			}
		}
	}
	return out
}

func printVerdicts(w io.Writer, vs []verdict) (breaches, unresolved int) {
	fmt.Fprintf(w, "%-13s %-30s %36s %36s %8s %8s %6s  %s\n", "workload", "metric",
		"base median [q1 q3] n", "change median [q1 q3] n", "worse", "spread", "bound", "verdict")
	for _, v := range vs {
		word := "ok"
		switch {
		case v.bound == 0:
			word = "-" // per-layer metrics carry no bound
		case v.breach:
			word = "BREACH"
			breaches++
		case v.unresolved:
			word = "unresolved"
			unresolved++
		}
		fmt.Fprintf(w, "%-13s %-30s %12.5g [%9.4g %9.4g] %2d %12.5g [%9.4g %9.4g] %2d %+7.1f%% %7.1f%% %5.0f%%  %s\n",
			v.workload, v.metric, v.base[1], v.base[0], v.base[2], v.nBase,
			v.change[1], v.change[0], v.change[2], v.nChange, 100*v.worse, 100*v.spread, 100*v.bound, word)
	}
	return breaches, unresolved
}

// compareMain: compare base.jsonl change.jsonl. With more than two
// files, the first half is the base set and the second half the change
// set. Exits 1 on a breach (or an incorrect run), 0 otherwise.
func compareMain(files []string) int {
	if len(files) < 2 || len(files)%2 != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare base.jsonl... change.jsonl...  (as many change files as base files)")
		return 2
	}
	half := len(files) / 2
	baseRs, err := loadRecords(files[:half])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	changeRs, err := loadRecords(files[half:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	base, badB := group(baseRs)
	change, badC := group(changeRs)
	breaches, unresolved := printVerdicts(os.Stdout, compareSets(base, change))
	fmt.Printf("\n%d breaches, %d unresolved, %d incorrect runs (base %d, change %d)\n",
		breaches, unresolved, badB+badC, badB, badC)
	if breaches > 0 || badB+badC > 0 {
		return 1
	}
	return 0
}
