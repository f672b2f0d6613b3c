// Command fcds is a streaming CLI over the sketch library: it reads
// newline-delimited items from stdin and prints an estimate.
//
// Usage:
//
//	fcds uniques [-k 4096] [-writers N]      # distinct-count (Θ sketch)
//	fcds hll [-p 12]                         # distinct-count (HLL)
//	fcds quantiles [-k 128] [-q 0.5,0.99]    # numeric quantiles
//
// With -writers > 1 the input is fanned out to N concurrent writer
// goroutines through the paper's framework — mostly useful as a live
// demo that queries (printed every -every lines) proceed while
// ingestion runs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	fcds "github.com/fcds/fcds"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run dispatches one command line over the given streams and returns
// the exit code: 2 for a usage error, 1 for unreadable input. A flag
// that does not parse exits the process, as flag.ExitOnError does.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "uniques":
		return uniques(args[1:], stdin, stdout, stderr)
	case "hll":
		return hllCmd(args[1:], stdin, stdout, stderr)
	case "quantiles":
		return quantilesCmd(args[1:], stdin, stdout, stderr)
	default:
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: fcds {uniques|hll|quantiles} [flags] < input")
}

func uniques(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uniques", flag.ExitOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 4096, "sketch size (power of two)")
	writers := fs.Int("writers", 1, "concurrent writer goroutines (at least 1)")
	every := fs.Int("every", 0, "print a live estimate every N lines (0 = only final)")
	_ = fs.Parse(args)
	if *writers < 1 {
		fmt.Fprintf(stderr, "fcds uniques: -writers %d: need at least one writer\n", *writers)
		fs.Usage()
		return 2
	}

	c := fcds.NewConcurrentTheta(fcds.ConcurrentThetaConfig{K: *k, Writers: *writers})
	defer c.Close()

	lines := make(chan string, 1024)
	done := make(chan struct{})
	for i := 0; i < *writers; i++ {
		go func(i int) {
			w := c.Writer(i)
			for s := range lines {
				w.UpdateString(s)
			}
			w.Flush()
			done <- struct{}{}
		}(i)
	}
	n := 0
	err := scanLines(stdin, func(line string) {
		lines <- line
		n++
		if *every > 0 && n%*every == 0 {
			fmt.Fprintf(stdout, "~%.0f uniques so far\n", c.Estimate())
		}
	})
	close(lines)
	for i := 0; i < *writers; i++ {
		<-done
	}
	if err != nil {
		return inputError(stderr, err)
	}
	fmt.Fprintf(stdout, "%d lines, ~%.0f distinct (Θ sketch k=%d, writers=%d)\n",
		n, c.Estimate(), *k, *writers)
	return 0
}

func hllCmd(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hll", flag.ExitOnError)
	p := fs.Int("p", 12, "precision (4..18)")
	_ = fs.Parse(args)
	s := fcds.NewHLLSketch(uint8(*p))
	n := 0
	if err := scanLines(stdin, func(line string) {
		s.UpdateString(line)
		n++
	}); err != nil {
		return inputError(stderr, err)
	}
	fmt.Fprintf(stdout, "%d lines, ~%.0f distinct (HLL p=%d, RSE %.1f%%)\n",
		n, s.Estimate(), *p, 100*s.RelativeStandardError())
	return 0
}

func quantilesCmd(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quantiles", flag.ExitOnError)
	k := fs.Int("k", 128, "sketch parameter (power of two)")
	qs := fs.String("q", "0.5,0.9,0.99", "comma-separated quantile fractions")
	_ = fs.Parse(args)
	s := fcds.NewQuantilesSketch(*k)
	bad := 0
	if err := scanLines(stdin, func(line string) {
		v, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
		if err != nil {
			bad++
			return
		}
		s.Update(v)
	}); err != nil {
		return inputError(stderr, err)
	}
	if s.IsEmpty() {
		fmt.Fprintln(stdout, "no numeric input")
		return 0
	}
	fmt.Fprintf(stdout, "n=%d min=%g max=%g (ε≈%.2f%%)\n", s.N(), s.Min(), s.Max(),
		100*fcds.QuantilesRankError(*k))
	for _, part := range strings.Split(*qs, ",") {
		phi, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || phi < 0 || phi > 1 {
			fmt.Fprintf(stderr, "skipping bad quantile %q\n", part)
			continue
		}
		fmt.Fprintf(stdout, "q%.3g = %g\n", phi, s.Quantile(phi))
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "skipped %d non-numeric lines\n", bad)
	}
	return 0
}

// maxLine bounds one input line; a longer line fails the input.
const maxLine = 1 << 20

// scanLines calls fn with every line of r, in order. It returns the
// scanner's error, so input cut short by a read failure or a line
// longer than maxLine is reported instead of ending the stream quietly.
func scanLines(r io.Reader, fn func(line string)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxLine), maxLine)
	for sc.Scan() {
		fn(sc.Text())
	}
	return sc.Err()
}

// inputError reports unreadable input and returns its exit code.
func inputError(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "fcds: reading input: %v\n", err)
	return 1
}
