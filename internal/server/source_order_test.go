package server_test

import (
	"bytes"
	"testing"
)

// TestRollupFoldsSourcesInOrder: a quantiles key held by five named
// sources is folded in the order the sources arrived, so twenty
// repeated ROLLUPs of unchanged state answer with the same bytes
// (quantiles merges depend on order), and a server rebuilt from a
// checkpoint plus the journal answers with the never-crashed server's
// exact bytes.
func TestRollupFoldsSourcesInOrder(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	srvA, addrA, _ := journaledTrioServer(t, jdir)
	ca := dialT(t, addrA)
	sources := []string{"edge-c", "edge-a", "edge-e", "edge-b", "edge-d"}
	for i, src := range sources {
		if err := ca.PushSnapshotFrom("lat", src, edgeLatBlob(t, i*700, i*700+900)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			// Two sources in the checkpoint, three only in the journal.
			if _, err := srvA.WriteCheckpoints(cdir); err != nil {
				t.Fatal(err)
			}
		}
	}
	rollup := func(t *testing.T, addr string) []byte {
		t.Helper()
		_, blob, err := dialT(t, addr).Rollup("lat")
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	want := rollup(t, addrA)
	for i := 1; i < 20; i++ {
		if got := rollup(t, addrA); !bytes.Equal(got, want) {
			t.Fatalf("rollup %d of unchanged state differs from the first", i)
		}
	}

	srvB, addrB := newTrioServer(t)
	if _, err := srvB.RestoreCheckpoints(cdir); err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.ReplayJournal(jdir); err != nil {
		t.Fatal(err)
	}
	if got := rollup(t, addrB); !bytes.Equal(got, want) {
		t.Fatal("the recovered server's rollup differs from the never-crashed server's")
	}
}
