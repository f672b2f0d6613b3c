package fcds_test

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeMapsEverything keeps README.md's paper → package → workload
// map from drifting: every workload BENCHMARK.json declares, every
// package under internal/ and every binary under cmd/ must appear in
// it, in backquotes, and every `internal/…` package or `cmd/…` binary
// it names must exist.
func TestReadmeMapsEverything(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	mentions := func(name string) bool { return strings.Contains(string(readme), "`"+name+"`") }

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range manifest.Workloads {
		if !mentions(w.Name) {
			t.Errorf("README.md does not mention workload `%s`", w.Name)
		}
	}

	// Every directory under internal/ and cmd/ that holds a non-test
	// Go file.
	pkgs := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				pkgs[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for pkg := range pkgs {
		if !mentions(pkg) {
			t.Errorf("README.md does not mention package `%s`", pkg)
		}
	}

	// The first word of a backquoted `internal/…` or `cmd/…` span names
	// a package or binary (`cmd/fcds-bench table1` names fcds-bench).
	named := regexp.MustCompile("`((?:internal|cmd)/[^`\\s]+)")
	for _, m := range named.FindAllStringSubmatch(string(readme), -1) {
		if !pkgs[m[1]] {
			t.Errorf("README.md names `%s`, which does not exist", m[1])
		}
	}
}
