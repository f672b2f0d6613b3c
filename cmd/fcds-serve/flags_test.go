package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBadFlagsExitWithUsage: a flag value the node cannot run with is
// refused before the port opens — the reason and the usage on stderr,
// exit code 2 — instead of a panic once the node is up (a non-positive
// -push-every reached time.NewTicker; a negative -writers sized a
// slice; a -param the family cannot take reached its constructor) or a
// silently different node (an HLL -param wrapped through uint8; a
// non-positive -checkpoint-every became 30 s, a -checkpoint-retain
// below 1 became 2, a negative -max-keys meant no cap and a negative
// -ttl no expiry).
func TestBadFlagsExitWithUsage(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fcds-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	ckptDir := t.TempDir()
	for _, tc := range []struct {
		args   []string
		reason string
	}{
		{[]string{"-push", "127.0.0.1:1", "-push-every", "0"}, "-push-every 0s"},
		{[]string{"-push", "127.0.0.1:1", "-push-every", "-1s"}, "-push-every -1s"},
		{[]string{"-writers", "-1"}, "-writers -1"},
		{[]string{"-writers", "0"}, "-writers 0"},
		{[]string{"-tables", "x=hll/u64", "-param", "260"}, "-param 260"},
		{[]string{"-tables", "x=hll/u64", "-param", "-252"}, "-param -252"},
		{[]string{"-tables", "x=hll/u64", "-param", "19"}, "-param 19"},
		{[]string{"-tables", "x=hll/str", "-param", "3"}, "-param 3"},
		{[]string{"-param", "3"}, "-param 3"},
		{[]string{"-tables", "x=theta/u64", "-param", "1000"}, "-param 1000"},
		{[]string{"-tables", "q=quantiles/str", "-param", "3"}, "-param 3"},
		{[]string{"-tables", "q=quantiles/u64", "-param", "-8"}, "-param -8"},
		{[]string{"-tables", "q=quantiles/str", "-param", "65536"}, "-param 65536"},
		{[]string{"-tables", "x=theta/str,y=hll/str", "-param", "32"}, "table y"},
		{[]string{"-checkpoint-dir", ckptDir, "-checkpoint-every", "0"}, "-checkpoint-every 0s"},
		{[]string{"-checkpoint-dir", ckptDir, "-checkpoint-every", "-1s"}, "-checkpoint-every -1s"},
		{[]string{"-checkpoint-retain", "0"}, "-checkpoint-retain 0"},
		{[]string{"-max-keys", "-1"}, "-max-keys -1"},
		{[]string{"-ttl", "-1s"}, "-ttl -1s"},
	} {
		// A node that starts runs until killed: the deadline ends it.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		var stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2\n%s", tc.args, err, stderr.String())
			continue
		}
		out := stderr.String()
		for _, want := range []string{tc.reason, "Usage of"} {
			if !strings.Contains(out, want) {
				t.Errorf("%v: stderr lacks %q:\n%s", tc.args, want, out)
			}
		}
		for _, bad := range []string{"panic", "listening on", "serving table"} {
			if strings.Contains(out, bad) {
				t.Errorf("%v: stderr has %q:\n%s", tc.args, bad, out)
			}
		}
	}
}
