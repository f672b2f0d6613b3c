package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// numbers returns the lines first..last, one integer each.
func numbers(first, last int) string {
	var b strings.Builder
	for i := first; i <= last; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	return b.String()
}

// runWithin runs one command line over stdin and fails the test if it
// does not return within a few seconds (a command that hangs would
// otherwise stall the whole test binary).
func runWithin(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run(args, strings.NewReader(stdin), &out, &errb) }()
	select {
	case code = <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("fcds %v did not return", args)
	}
	return code, out.String(), errb.String()
}

// TestUniquesRejectsZeroWriters: with no writer goroutine nothing
// drains the line channel, so -writers below 1 is a usage error.
func TestUniquesRejectsZeroWriters(t *testing.T) {
	for _, w := range []string{"0", "-3"} {
		code, stdout, stderr := runWithin(t, []string{"uniques", "-writers", w}, numbers(1, 5000))
		if code != 2 {
			t.Errorf("-writers %s: exit %d, want 2", w, code)
		}
		if stdout != "" || !strings.Contains(stderr, "-writers") || !strings.Contains(stderr, "Usage of uniques") {
			t.Errorf("-writers %s: stdout %q, stderr %q; want the usage message only", w, stdout, stderr)
		}
	}
}

// TestCommandsCount pins each command's summary line on plain input.
func TestCommandsCount(t *testing.T) {
	in := numbers(1, 1000)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"uniques", "-writers", "2"}, "1000 lines, ~1000 distinct"},
		{[]string{"hll"}, "1000 lines, ~"},
		{[]string{"quantiles", "-q", "0.5"}, "n=1000 min=1 max=1000"},
	} {
		code, stdout, stderr := runWithin(t, tc.args, in)
		if code != 0 || !strings.Contains(stdout, tc.want) {
			t.Errorf("fcds %v: exit %d, stdout %q, stderr %q; want exit 0 and %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestLongLineFailsInput: a line longer than the scanner's buffer ends
// the scan with an error. Every command must report it and exit 1, not
// print a summary of the lines before it.
func TestLongLineFailsInput(t *testing.T) {
	in := numbers(1, 10) + strings.Repeat("7", 2<<20) + "\n" + numbers(11, 2000)
	for _, args := range [][]string{{"uniques"}, {"uniques", "-writers", "2"}, {"hll"}, {"quantiles"}} {
		code, stdout, stderr := runWithin(t, args, in)
		if code != 1 {
			t.Errorf("fcds %v: exit %d, want 1", args, code)
		}
		if stdout != "" || !strings.Contains(stderr, "token too long") {
			t.Errorf("fcds %v: stdout %q, stderr %q; want the scanner error only", args, stdout, stderr)
		}
	}
}

func TestUnknownCommandExits2(t *testing.T) {
	for _, args := range [][]string{nil, {"theta"}} {
		if code, _, _ := runWithin(t, args, ""); code != 2 {
			t.Errorf("fcds %v: exit %d, want 2", args, code)
		}
	}
}
