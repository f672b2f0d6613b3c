package relax

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/theta"
)

func TestFigure2Example(t *testing.T) {
	// The paper's Figure 2: H is a 1-relaxation of H'. In H', a query
	// runs after update(a) but returns the empty-sketch answer (0),
	// i.e. it "missed" one update — legal for r=1, illegal for r=0.
	hPrime := []SeqOp{
		{Kind: KindUpdate, Value: 1}, // update(a)
		{Kind: KindQuery, Result: 0}, // missed a
		{Kind: KindUpdate, Value: 2}, // update(b)
		{Kind: KindQuery, Result: 2}, // sees both
	}
	if !IsRelaxationOfCounting(hPrime, 1) {
		t.Error("Figure 2 history rejected at r=1")
	}
	if IsRelaxationOfCounting(hPrime, 0) {
		t.Error("Figure 2 history accepted at r=0 (unrelaxed)")
	}
}

func TestSequentialChecker(t *testing.T) {
	tests := []struct {
		name string
		h    []SeqOp
		r    int
		want bool
	}{
		{
			name: "exact history always valid",
			h: []SeqOp{
				{Kind: KindUpdate, Value: 1},
				{Kind: KindQuery, Result: 1},
				{Kind: KindUpdate, Value: 2},
				{Kind: KindQuery, Result: 2},
			},
			r: 0, want: true,
		},
		{
			name: "query misses r+1 updates",
			h: []SeqOp{
				{Kind: KindUpdate, Value: 1},
				{Kind: KindUpdate, Value: 2},
				{Kind: KindUpdate, Value: 3},
				{Kind: KindQuery, Result: 0},
			},
			r: 2, want: false,
		},
		{
			name: "query misses exactly r updates",
			h: []SeqOp{
				{Kind: KindUpdate, Value: 1},
				{Kind: KindUpdate, Value: 2},
				{Kind: KindUpdate, Value: 3},
				{Kind: KindQuery, Result: 1},
			},
			r: 2, want: true,
		},
		{
			name: "query overcounts beyond stream",
			h: []SeqOp{
				{Kind: KindUpdate, Value: 1},
				{Kind: KindQuery, Result: 2},
			},
			r: 5, want: false,
		},
		{
			name: "query sees a later update (reordering allowed)",
			h: []SeqOp{
				{Kind: KindUpdate, Value: 1},
				{Kind: KindQuery, Result: 2}, // sees update(2) early
				{Kind: KindUpdate, Value: 2},
			},
			r: 0, want: true,
		},
		{
			name: "second query regresses more than r",
			h: []SeqOp{
				{Kind: KindUpdate, Value: 1},
				{Kind: KindUpdate, Value: 2},
				{Kind: KindUpdate, Value: 3},
				{Kind: KindQuery, Result: 3},
				{Kind: KindQuery, Result: 1},
			},
			r: 1, want: false,
		},
		{
			name: "empty history",
			h:    nil,
			r:    0, want: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsRelaxationOfCounting(tc.h, tc.r); got != tc.want {
				t.Errorf("IsRelaxationOfCounting = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestCheckCountingAcceptsExactHistory(t *testing.T) {
	rec := NewRecorder()
	for i := uint64(0); i < 10; i++ {
		inv := rec.Begin()
		rec.EndUpdate(0, i, inv)
	}
	inv := rec.Begin()
	rec.EndQuery(10, inv)
	if err := CheckCounting(rec.History(), 0); err != nil {
		t.Errorf("exact history rejected: %v", err)
	}
}

func TestCheckCountingRejectsLostUpdates(t *testing.T) {
	rec := NewRecorder()
	for i := uint64(0); i < 10; i++ {
		inv := rec.Begin()
		rec.EndUpdate(0, i, inv)
	}
	inv := rec.Begin()
	rec.EndQuery(3, inv) // missed 7 > r=5
	err := CheckCounting(rec.History(), 5)
	if err == nil {
		t.Fatal("history with 7 lost updates accepted at r=5")
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("error type %T, want *Violation", err)
	}
	if v.Completed != 10 || v.Possible != 10 {
		t.Errorf("violation bookkeeping: C=%d P=%d", v.Completed, v.Possible)
	}
	if !strings.Contains(v.Error(), "outside") {
		t.Errorf("unhelpful violation message: %v", v)
	}
}

func TestCheckCountingRejectsFutureReads(t *testing.T) {
	rec := NewRecorder()
	inv := rec.Begin()
	rec.EndQuery(1, inv) // sees an update that never began
	if err := CheckCounting(rec.History(), 100); err == nil {
		t.Fatal("query observing a never-invoked update accepted")
	}
}

func TestCheckCountingAllowsMissingWithinR(t *testing.T) {
	rec := NewRecorder()
	for i := uint64(0); i < 10; i++ {
		inv := rec.Begin()
		rec.EndUpdate(0, i, inv)
	}
	inv := rec.Begin()
	rec.EndQuery(8, inv) // missed 2 <= r=2
	if err := CheckCounting(rec.History(), 2); err != nil {
		t.Errorf("history within relaxation rejected: %v", err)
	}
}

func TestCheckCountingInFlightUpdates(t *testing.T) {
	// An update overlapping the query may or may not be observed; both
	// results must be accepted.
	for _, result := range []float64{0, 1} {
		rec := NewRecorder()
		uinv := rec.Begin() // update invoked...
		qinv := rec.Begin() // ...query starts before it responds
		rec.EndQuery(result, qinv)
		rec.EndUpdate(0, 7, uinv)
		if err := CheckCounting(rec.History(), 0); err != nil {
			t.Errorf("overlapping update, result %v rejected: %v", result, err)
		}
	}
}

func TestCheckCountingCrossQueryMonotonicity(t *testing.T) {
	rec := NewRecorder()
	for i := uint64(0); i < 20; i++ {
		inv := rec.Begin()
		rec.EndUpdate(0, i, inv)
	}
	q1 := rec.Begin()
	rec.EndQuery(20, q1)
	q2 := rec.Begin()
	rec.EndQuery(10, q2) // regressed by 10 > r=4
	if err := CheckCounting(rec.History(), 4); err == nil {
		t.Fatal("regressing queries accepted")
	}
}

// TestThetaConcurrentSatisfiesRelaxation drives the real concurrent Θ
// sketch in exact mode and validates the recorded history against
// Theorem 1's bound r = 2Nb — the paper's main correctness claim,
// checked end-to-end. Each round reseeds the sketch's hash, so the
// rounds see different hash orders and propagation schedules.
func TestThetaConcurrentSatisfiesRelaxation(t *testing.T) {
	const writers, per, b = 3, 2000, 8
	for round := uint64(1); round <= 3; round++ {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			c := theta.NewConcurrent(theta.ConcurrentConfig{
				K: 1 << 16, Writers: writers, BufferSize: b, EagerLimit: -1, // stay exact
				Seed: round * 7919,
			})
			defer c.Close()
			rec := NewRecorder()

			var wg sync.WaitGroup
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					w := c.Writer(i)
					for j := 0; j < per; j++ {
						v := uint64(i*per + j) // globally distinct
						inv := rec.Begin()
						w.UpdateUint64(v)
						rec.EndUpdate(i, v, inv)
					}
				}(i)
			}
			stop := make(chan struct{})
			var qwg sync.WaitGroup
			qwg.Add(1)
			go func() {
				defer qwg.Done()
				// Bounded, throttled queries: the checker is O(Q·U), and an
				// unthrottled query loop would also starve writers on small
				// machines.
				for {
					select {
					case <-stop:
						return
					default:
					}
					inv := rec.Begin()
					est := c.Estimate()
					rec.EndQuery(est, inv)
					time.Sleep(500 * time.Microsecond)
				}
			}()
			wg.Wait()
			close(stop)
			qwg.Wait()

			if err := CheckCounting(rec.History(), c.Relaxation()); err != nil {
				t.Errorf("concurrent Θ sketch violated its relaxation bound: %v", err)
			}
		})
	}
}

// TestThetaParSketchSatisfiesRelaxation repeats the end-to-end check
// for the non-optimised ParSketch variant (r = Nb, Lemma 1).
func TestThetaParSketchSatisfiesRelaxation(t *testing.T) {
	const writers, per, b = 2, 2000, 8
	c := theta.NewConcurrent(theta.ConcurrentConfig{
		K: 1 << 16, Writers: writers, BufferSize: b, EagerLimit: -1,
		DisableDoubleBuffering: true,
	})
	defer c.Close()
	rec := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := c.Writer(i)
			for j := 0; j < per; j++ {
				v := uint64(i*per + j)
				inv := rec.Begin()
				w.UpdateUint64(v)
				rec.EndUpdate(i, v, inv)
			}
		}(i)
	}
	wg.Wait()
	inv := rec.Begin()
	rec.EndQuery(c.Estimate(), inv)
	if err := CheckCounting(rec.History(), c.Relaxation()); err != nil {
		t.Errorf("ParSketch violated its relaxation bound: %v", err)
	}
}

func TestRecorderConcurrentSafety(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				inv := rec.Begin()
				rec.EndUpdate(i, uint64(i*1000+j), inv)
			}
		}(i)
	}
	wg.Wait()
	h := rec.History()
	if len(h) != 4000 {
		t.Fatalf("recorded %d events, want 4000", len(h))
	}
	for _, e := range h {
		if e.Invoke >= e.Respond {
			t.Fatal("event with invoke >= respond")
		}
	}
}
