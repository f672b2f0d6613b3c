package server_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestPullAndCheckpointBytesStable: for each family, two SNAPSHOT_PULLs
// and two checkpoint bodies of unchanged state are byte-identical — FCTB
// images write their entries in key order, not map order. A checkpoint
// body is the FCCK file after its 24-byte header and before its CRC
// (the header carries the wall clock, which the CRC covers). Each table
// holds ~700 live keys and one pushed source, so map order would differ
// between captures almost surely.
func TestPullAndCheckpointBytesStable(t *testing.T) {
	srv, addr := newTrioServer(t)
	c := dialT(t, addr)
	const keys, perKey = 700, 3
	var sk []string
	var uk, uv []uint64
	var fv []float64
	for i := 0; i < keys*perKey; i++ {
		sk = append(sk, fmt.Sprintf("k%d", i%keys))
		uk = append(uk, uint64(i%keys)*0x9e3779b97f4a7c15)
		uv = append(uv, uint64(i))
		fv = append(fv, float64(i))
	}
	if err := c.Ingest("ev", sk, uv); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestFloat("lat", sk, fv); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestU64("dev", uk, uv); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.PushSnapshotFrom("lat", "edge-a", edgeLatBlob(t, 0, 500)); err != nil {
		t.Fatal(err)
	}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		if _, err := srv.WriteCheckpoints(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []string{"ev", "lat", "dev"} {
		t.Run(tbl, func(t *testing.T) {
			first, err := c.PullSnapshot(tbl)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := c.PullSnapshot(tbl); err != nil || !bytes.Equal(again, first) {
				t.Fatalf("two pulls of unchanged state differ (err %v)", err)
			}
			var bodies [2][]byte
			for i, dir := range dirs {
				files, err := filepath.Glob(filepath.Join(dir, tbl+"-*.fcck"))
				if err != nil || len(files) != 1 {
					t.Fatalf("checkpoint files for %s: %v (%v)", tbl, files, err)
				}
				data, err := os.ReadFile(files[0])
				if err != nil {
					t.Fatal(err)
				}
				bodies[i] = data[24 : len(data)-4]
			}
			if !bytes.Equal(bodies[0], bodies[1]) {
				t.Fatal("two checkpoint bodies of unchanged state differ")
			}
		})
	}
}
