// Command benchmark is the repository's benchmark: seven workloads over
// the whole update path (hash, sketch, writer buffer and propagator
// pool, keyed table, epoch window, wire, journal and checkpoint), seven
// end-to-end metrics, and a traced run that prices each layer. See
// README.md.
//
//	benchmark [-seed n] [-seconds s] [-trace 0|1]               every workload, readable
//	benchmark -workload name -seed n -seconds s -trace 0|1      one run; last line is the result JSON
//	benchmark compare base.jsonl change.jsonl                   medians, quartiles, verdicts
//	benchmark manifest                                          BENCHMARK.json, from the tables in workloads.go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

// machine is the fingerprint recorded with every result, so numbers
// are only ever compared like with like.
type machine struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() machine {
	m := machine{runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), "unknown"}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		m.Commit = c
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "manifest" {
		os.Stdout.Write(manifest())
		return
	}
	var (
		name    = flag.String("workload", "", "run only this workload and end with one result JSON line")
		seedArg = flag.String("seed", "1", "every input is generated from this seed: any whole number, or any other text, which is hashed")
		seconds = flag.Float64("seconds", runSeconds, "nominal measured time per workload; scales the amount of work, which is then the same on every commit")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics and a span file; 0: end-to-end metrics")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files and -record")
		workDir = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for journals and checkpoints")
		record  = flag.String("record", "", "append each result as a JSON line to this file (input of compare)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments or non-positive seconds")
		os.Exit(2)
	}
	seed := parseSeed(*seedArg)
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	m := fingerprint()
	fmt.Printf("# fcds benchmark: GOMAXPROCS=%d nproc=%d %s commit=%s seed=%d seconds=%g generators=%d\n",
		m.GoMaxProcs, m.NumCPU, m.GoVersion, m.Commit, seed, *seconds, generators)
	ok := true
	for _, w := range selected {
		cfg := runConfig{
			w: w.sized(*seconds), seed: seed, trace: *trace == 1,
			segments: segments, workDir: *workDir, outDir: *outDir, dropPass: -1,
		}
		if cfg.trace {
			// One instance keeps the spans of a traced run one tree, and
			// the ladder runs beside it; it gets all the run's rounds.
			cfg.w.passes *= cfg.segments
			cfg.segments = 1
		}
		res, err := runWorkload(cfg)
		if err != nil {
			// No result line: the operation that failed is the report.
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printResult(res)
		if *record != "" {
			if err := appendRecord(*record, res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
		}
		if *name != "" {
			line, _ := json.Marshal(struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    int64             `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}{res.Correct, res.Attempted, res.Failed, res.Metrics})
			fmt.Println(string(line))
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// parseSeed accepts whatever a caller passes as --seed, so that no seed
// is ever refused: a whole number that fits 64 bits, signed or not, is
// itself; anything else is hashed (FNV-1a).
func parseSeed(s string) uint64 {
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		return u
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return uint64(i)
	}
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// printResult prints every metric by name with its unit, then the
// supporting distributions and the oracle's verdicts.
func printResult(res *result) {
	mode := "end-to-end"
	defs := endToEnd
	if res.Trace {
		mode, defs = "per-layer (traced)", perLayer
	}
	fmt.Printf("\n== %s  seed %d  %s  streams %s\n", res.Workload, res.Seed, mode, res.Checksum)
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Printf("  %-32s %14.6g %-9s (%s is better)\n", d.name, m.Value, m.Unit, d.better)
		}
	}
	for _, n := range res.notes {
		fmt.Println("  -", n)
	}
	for _, c := range res.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("  check %s %-24s %s\n", verdict, c.Name, c.Note)
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
}

func appendRecord(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSeconds is the run_seconds BENCHMARK.json states: what the driver
// passes as -seconds.
const runSeconds = 15

// manifest renders BENCHMARK.json from the workload and metric tables,
// so the file at the repository root cannot drift from the program.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, _ := json.MarshalIndent(m, "", "  ")
	return append(out, '\n')
}
