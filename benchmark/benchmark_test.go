package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyConfig is a workload at the test-only size, every stage and check
// kept.
func tinyConfig(t *testing.T, name string, seed uint64, trace bool) runConfig {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return runConfig{
		w: w.tiny(), seed: seed, trace: trace, segments: 1, dropPass: -1,
		workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out"),
	}
}

func mustRun(t *testing.T, cfg runConfig) *result {
	t.Helper()
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.w.name, err)
	}
	return res
}

func failedChecks(res *result) string {
	var bad []string
	for _, c := range res.Checks {
		if !c.OK {
			bad = append(bad, c.Name+": "+c.Note)
		}
	}
	return strings.Join(bad, "; ")
}

// Every workload runs end to end with its checks on and prints every
// end-to-end metric as a finite, non-zero number.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(t, w.name, 1, false)
		cfg.segments = 2 // a run measures over several set-ups; each is checked
		res := mustRun(t, cfg)
		if want := 2 * mustRun(t, tinyConfig(t, w.name, 1, false)).Sent; res.Sent != want {
			t.Errorf("%s: two segments sent %d items, one segment twice is %d", w.name, res.Sent, want)
		}
		if !res.Correct {
			t.Errorf("%s: checks failed: %s", w.name, failedChecks(res))
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", w.name, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive finite value in %s", w.name, d.name, m, ok, d.unit)
			}
		}
	}
}

// A traced run prints every per-layer metric as a finite number and
// writes a span file whose spans all close and nest under a parent that
// exists.
func TestEveryWorkloadTraced(t *testing.T) {
	defer func(d time.Duration) { ladderMinTime = d }(ladderMinTime)
	ladderMinTime = time.Millisecond
	for _, w := range workloads {
		cfg := tinyConfig(t, w.name, 1, true)
		res := mustRun(t, cfg)
		if !res.Correct {
			t.Errorf("%s: checks failed: %s", w.name, failedChecks(res))
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			m, ok := res.Metrics[d.name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", w.name, d.name, m, ok)
			}
		}
		if _, err := json.Marshal(res.Metrics); err != nil {
			t.Errorf("%s: metrics do not encode: %v", w.name, err)
		}
		f, err := os.Open(filepath.Join(cfg.outDir, "trace-"+w.name+"-seed1.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		ids, parents, names := map[int]bool{}, []int{}, map[string]bool{}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var line struct {
				Type       string
				ID, Parent int
				Name       string
				Start      int64 `json:"start_ns"`
				End        int64 `json:"end_ns"`
				Workload   string
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("%s: trace line %q: %v", w.name, sc.Text(), err)
			}
			if line.Type != "span" {
				continue
			}
			if line.End < line.Start || line.Workload != w.name {
				t.Errorf("%s: bad span %+v", w.name, line)
			}
			ids[line.ID] = true
			parents = append(parents, line.Parent)
			names[line.Name] = true
		}
		f.Close()
		for _, p := range parents {
			if p != 0 && !ids[p] {
				t.Errorf("%s: span parent %d is not in the trace", w.name, p)
			}
		}
		for _, want := range []string{"setup", "round", "pass", "generate", "serve", "ship",
			"PushSnapshotFrom", "WriteCheckpoints", "RestoreCheckpoints+ReplayJournal"} {
			if !names[want] {
				t.Errorf("%s: no %q span in the trace", w.name, want)
			}
		}
	}
}

// The same seed gives the same streams and the same amount of work; a
// different seed gives different streams.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range []string{"table_hot", "serve_mixed", "ship_recover"} {
		a := mustRun(t, tinyConfig(t, name, 7, false))
		b := mustRun(t, tinyConfig(t, name, 7, false))
		c := mustRun(t, tinyConfig(t, name, 8, false))
		if a.Checksum != b.Checksum || a.Sent != b.Sent {
			t.Errorf("%s: seed 7 twice: checksums %s %s, items sent %d %d", name, a.Checksum, b.Checksum, a.Sent, b.Sent)
		}
		if a.Checksum == c.Checksum {
			t.Errorf("%s: seeds 7 and 8 generated the same streams (%s)", name, a.Checksum)
		}
		if a.Sent != c.Sent {
			t.Errorf("%s: seeds 7 and 8 sent %d and %d items", name, a.Sent, c.Sent)
		}
	}
}

// No seed a caller passes is refused, and a seed of any size runs: its
// value counters wrap around 64 bits and stay distinct.
func TestAnySeedIsAccepted(t *testing.T) {
	for arg, want := range map[string]uint64{"7": 7, "18446744073709551615": 1<<64 - 1, "-1": 1<<64 - 1} {
		if got := parseSeed(arg); got != want {
			t.Errorf("parseSeed(%q) = %d, want %d", arg, got, want)
		}
	}
	if parseSeed("x") == parseSeed("y") || parseSeed("99999999999999999999") == 0 {
		t.Error("parseSeed: text and oversized seeds must hash to different non-zero seeds")
	}
	for _, name := range []string{"sketch_theta", "window_hot"} {
		if res := mustRun(t, tinyConfig(t, name, 1<<64-1, false)); !res.Correct {
			t.Errorf("%s at seed 2^64-1: %s", name, failedChecks(res))
		}
	}
}

// A pass the generators count but never send must fail the oracle: the
// per-key counts below K are compared exactly.
func TestDroppedPassFailsTheOracle(t *testing.T) {
	for _, name := range []string{"table_hot", "serve_ingest"} {
		cfg := tinyConfig(t, name, 1, false)
		cfg.dropPass = cfg.w.passes - 1
		res := mustRun(t, cfg)
		if res.Correct || !strings.Contains(failedChecks(res), "per-key sample") {
			t.Errorf("%s: dropped pass went unnoticed (correct=%v, failed checks: %q)", name, res.Correct, failedChecks(res))
		}
	}
}

// Behind the window the oracle must expect the last 3 rounds only, serve
// slices included: with more rounds than the ring holds, the counts below
// K (compared exactly) are wrong if it counts anything older.
func TestWindowOracleCountsLiveRoundsOnly(t *testing.T) {
	cfg := tinyConfig(t, "window_hot", 1, false)
	cfg.w.passes = 2*winSlots/epochsPerPass + 1
	res := mustRun(t, cfg)
	if !res.Correct {
		t.Errorf("checks failed: %s", failedChecks(res))
	}
	for _, c := range res.Checks {
		if c.Name == "per-key sample" && strings.Contains(c.Note, "(0 below K") {
			t.Errorf("no sampled key was compared exactly: %s", c.Note)
		}
	}
}

// Self time is a span's duration minus what its children cover, with
// overlapping children (two generators under one pass) counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "generate", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "generate", Start: 20, End: 80},
		{ID: 4, Parent: 1, Name: "Drain", Start: 85, End: 95},
		{ID: 5, Parent: 2, Name: "UpdateKeyedBatch", Start: 10, End: 30},
		{ID: 6, Parent: 2, Name: "UpdateKeyedBatch", Start: 35, End: 55},
		{ID: 7, Parent: 3, Name: "UpdateKeyedBatch", Start: 20, End: 80},
	}
	self := selfTimes(spans)
	for id, want := range map[spanID]int64{1: 20, 2: 10, 3: 0, 4: 10, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := selfShare(spans, "generate"); math.Abs(got-10.0/110) > 1e-12 {
		t.Errorf("self share of generate = %v, want 10/110", got)
	}
	tr := newTracer()
	tr.on = false
	if id := tr.begin(0, "x", 0, 0); id != 0 {
		t.Errorf("switched-off tracer recorded span %d", id)
	}
	tr.end(0)
	var none *tracer
	none.end(none.begin(1, "x", 0, 0))
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if a, b := fastQuarter([]float64{4, 1, 3, 2, 8, 7, 6, 5}), fastQuarter([]float64{9, 3}); a != 1.5 || b != 3 {
		t.Errorf("fastQuarter: %v and %v, want 1.5 (the lowest two of eight) and 3", a, b)
	}
	if p, v := hiPercentile(make([]float64, 99)); p != 50 || v != 0 {
		t.Errorf("99 samples support p%v", p)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := hiPercentile(xs); p != 99 || v != 990 {
		t.Errorf("1000 samples: p%v = %v, want p99 = 990", p, v)
	}
}

// compare judges by the bounds the benchmark declares, and by nothing
// else: a median worse than its bound is a breach, a spread wider than
// the bound is unresolved, and each metric's direction is respected.
func TestCompareVerdicts(t *testing.T) {
	boundOf := func(name string) float64 {
		for _, d := range endToEnd {
			if d.name == name {
				return d.bound
			}
		}
		t.Fatalf("%s is not an end-to-end metric", name)
		return 0
	}
	ib := boundOf("ingest_mops")
	scaled := func(f float64, xs ...float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}
	set := func(ingest, rollup []float64) series {
		return series{"table_hot": {"ingest_mops": ingest, "rollup_p50_ms": rollup}}
	}
	steady := []float64{1, 1.01, 0.99, 1, 1.005}
	base := set(scaled(10, steady...), scaled(5, steady...))
	verdictOf := func(vs []verdict, metric string) verdict {
		for _, v := range vs {
			if v.metric == metric {
				return v
			}
		}
		t.Fatalf("no verdict for %s", metric)
		return verdict{}
	}
	vs := compareSets(base, set(scaled(10*(1-ib-0.05), steady...), scaled(4, steady...)))
	if v := verdictOf(vs, "ingest_mops"); !v.breach || v.bound != ib || v.worse < ib+0.04 {
		t.Errorf("throughput down by the bound and a twentieth more: %+v", v)
	}
	if v := verdictOf(vs, "rollup_p50_ms"); !v.ok || v.worse > 0 {
		t.Errorf("20%% faster rollup: %+v", v)
	}
	vs = compareSets(base, set(scaled(10*(1-ib+0.02), steady...), scaled(5, steady...)))
	if v := verdictOf(vs, "ingest_mops"); !v.ok {
		t.Errorf("throughput down by a fiftieth less than the bound: %+v", v)
	}
	vs = compareSets(base, set(scaled(10, 1, 1+2*ib, 1-2*ib, 1+ib, 1-ib), scaled(5, steady...)))
	if v := verdictOf(vs, "ingest_mops"); !v.unresolved || v.breach {
		t.Errorf("same median, spread wider than the bound: %+v", v)
	}
	var out bytes.Buffer
	if b, u := printVerdicts(&out, vs); b != 0 || u != 1 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("printVerdicts: %d breaches, %d unresolved\n%s", b, u, out.String())
	}
}

// BENCHMARK.json at the repository root is what `benchmark manifest`
// prints, and stays inside the driver's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want := manifest()
	if got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run . manifest > ../BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 {
				t.Errorf("metric %q (unit %q): duplicate or too long", d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || w.ckptRounds < 1 ||
			w.shipSources%generators != 0 || w.shipTail > w.shipSources {
			t.Errorf("workload %s: why too long, or ship sizes inconsistent", w.name)
		}
	}
}
