//go:build smoke

// Scrape smoke for the ops endpoint: one real fcds-serve process that
// pushes snapshots to itself, scraped over real HTTP — asserting the
// /metrics exposition carries the full family set with live traffic in
// the counters, and that /healthz reports the checkpoint state. The
// in-process tests cover each subsystem's registration; only a real
// process exercises all of them wired into one registry behind one
// listener.
//
//	go test -tags smoke -run MetricsEndpoint ./cmd/fcds-serve/
package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/server/client"
)

// scrape fetches url and returns the response body, retrying until the
// deadline (the server binds its listeners asynchronously at startup).
func scrape(t *testing.T, url string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return string(body)
			}
			err = rerr
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrape %s: %v", url, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// parseExposition returns the set of `# TYPE`-declared families and a
// flat sample map (name{labels} -> value) from Prometheus text.
func parseExposition(t *testing.T, body string) (families map[string]bool, samples map[string]float64) {
	t.Helper()
	families = make(map[string]bool)
	samples = make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(rest)[0]] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return families, samples
}

func TestMetricsEndpointSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fcds-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	addr := reservePort(t)
	metricsAddr := reservePort(t)

	// One node pushing snapshots to itself: the single process exercises
	// server ingest, the reliable shipper, snapshot-push acceptance and
	// checkpointing — every registered subsystem sees traffic.
	cmd := exec.Command(bin,
		"-addr", addr,
		"-metrics-addr", metricsAddr,
		"-tables", "events=theta/str,lat=quantiles/str",
		"-push", addr,
		"-push-every", "150ms",
		"-push-source", "metrics-smoke",
		"-checkpoint-dir", t.TempDir(),
		"-checkpoint-every", "200ms",
		"-v")
	cmd.Stderr = procLog{t, "serve"}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill() }()

	// Drive real ingest traffic through the wire path (retrying the
	// dial: the server binds its listener asynchronously at startup).
	var c *client.Client
	dialDeadline := time.Now().Add(15 * time.Second)
	for {
		var err error
		if c, err = client.Dial(addr, client.WithDialTimeout(time.Second)); err == nil {
			break
		}
		if time.Now().After(dialDeadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer c.Close()
	keys := make([]string, 500)
	vals := make([]float64, 500)
	for i := range keys {
		keys[i] = "api"
		vals[i] = float64(i)
	}
	if err := c.IngestFloat("lat", keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Wait for at least one full push + checkpoint cycle to land, then
	// scrape until the push-derived counters are visible.
	deadline := time.Now().Add(20 * time.Second)
	var families map[string]bool
	var samples map[string]float64
	for {
		body := scrape(t, "http://"+metricsAddr+"/metrics", 10*time.Second)
		families, samples = parseExposition(t, body)
		if samples[`fcds_server_snapshots_total`] > 0 &&
			samples[`fcds_client_delivered_total{upstream="`+addr+`"}`] > 0 &&
			samples[`fcds_server_has_checkpoint`] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("push cycle never surfaced in /metrics; snapshots=%v delivered=%v has_checkpoint=%v",
				samples[`fcds_server_snapshots_total`],
				samples[`fcds_client_delivered_total{upstream="`+addr+`"}`],
				samples[`fcds_server_has_checkpoint`])
		}
		time.Sleep(100 * time.Millisecond)
	}

	if len(families) < 25 {
		names := make([]string, 0, len(families))
		for f := range families {
			names = append(names, f)
		}
		t.Fatalf("/metrics exposes %d families, want >= 25: %v", len(families), names)
	}
	// Core counters must be non-zero after the ingest + push cycle.
	for _, name := range []string{
		`fcds_server_connections_total`,
		`fcds_server_frames_total`,
		`fcds_server_items_total`,
		`fcds_server_checkpoints_total`,
		`fcds_server_table_items_total{table="lat"}`,
		`fcds_client_dials_total{upstream="` + addr + `"}`,
		`fcds_pool_workers`,
		`fcds_table_keys{table="lat"}`,
	} {
		if samples[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, samples[name])
		}
	}
	// Writer-pool families: the waits counter and the idle gauge; and
	// the table writers' filter counter (0 on a quantiles table, whose
	// family has no writer-side filter, but always exported).
	for _, fam := range []string{
		"fcds_server_writer_pool_waits_total",
		"fcds_server_writer_pool_idle",
		"fcds_table_prefiltered_items_total",
	} {
		if !families[fam] {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	if v, ok := samples[`fcds_server_writer_pool_idle{table="lat"}`]; !ok || v <= 0 {
		t.Errorf(`fcds_server_writer_pool_idle{table="lat"} = %v (present=%v), want > 0 at rest`, v, ok)
	}

	// The per-source push-lag gauge appears once the first named push
	// is accepted, keyed by table and source.
	if _, ok := samples[`fcds_server_snapshot_push_age_seconds{source="metrics-smoke",table="lat"}`]; !ok {
		t.Error(`fcds_server_snapshot_push_age_seconds{source="metrics-smoke",table="lat"} missing`)
	}

	// /healthz mirrors the same registry state as structured JSON.
	var health map[string]any
	if err := json.Unmarshal([]byte(scrape(t, "http://"+metricsAddr+"/healthz", 5*time.Second)), &health); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if hc, _ := health["has_checkpoint"].(bool); !hc {
		t.Errorf("healthz has_checkpoint = %v, want true", health["has_checkpoint"])
	}
	if n, _ := health["items"].(float64); n < 500 {
		t.Errorf("healthz items = %v, want >= 500", health["items"])
	}

	// No graceful-shutdown assertion here: a self-pushing node closes
	// its own ingest listener on SIGTERM before the shipper's final
	// drain, which can never deliver. The crash-restart smoke covers
	// graceful shutdown with a live upstream; the deferred Kill reaps
	// this process.
}
