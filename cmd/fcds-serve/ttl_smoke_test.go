//go:build smoke

// TTL eviction smoke: a node started with -ttl and -journal evicts an
// idle key on its own, and the key's data stays in the rollup because
// the eviction spilled it into the remote aggregate.
//
//	go test -tags smoke -run TTLEviction ./cmd/fcds-serve/
package main

import (
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/theta"
)

func TestTTLEvictionSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fcds-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	addr := reservePort(t)
	node := exec.Command(bin,
		"-addr", addr,
		"-tables", "events=theta/str",
		"-ttl", "300ms",
		"-journal", t.TempDir(),
		"-v")
	node.Stderr = procLog{t, "node"}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Process.Kill() }()

	var c *client.Client
	for deadline := time.Now().Add(15 * time.Second); ; {
		var err error
		if c, err = client.Dial(addr, client.WithDialTimeout(time.Second)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer c.Close()

	// One key, 100 distinct items: far below K, so the estimate is exact.
	const items = 100
	keys := make([]string, items)
	vals := make([]uint64, items)
	for i := range keys {
		keys[i] = "idle"
		vals[i] = uint64(i)
	}
	if err := c.Ingest("events", keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Keys != 1 {
		t.Fatalf("HEALTH Keys = %d right after the ingest, want 1", h.Keys)
	}

	// Nothing touches the key again: it leaves between 300 and 450 ms
	// after its last update. The deadline leaves room for a loaded host.
	for deadline := time.Now().Add(10 * time.Second); h.Keys != 0; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("HEALTH Keys = %d 10 s after the last update of a key with -ttl 300ms, want 0", h.Keys)
		}
		if h, err = c.Health(); err != nil {
			t.Fatal(err)
		}
	}

	_, blob, err := c.Rollup("events")
	if err != nil {
		t.Fatal(err)
	}
	cpt, err := theta.UnmarshalCompact(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := cpt.Estimate(); got != items {
		t.Fatalf("rollup estimate after the eviction = %v, want %d: the evicted key's items must stay in the rollup", got, items)
	}

	if err := node.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := node.Wait(); err != nil {
		t.Fatalf("node exit: %v", err)
	}
}
