// Slidingwindow answers the dashboard question the point-in-time
// sketches cannot: "how many unique users in the LAST 5 MINUTES?".
//
// An epoch-ring windowed Θ sketch tracks sitewide uniques while a
// windowed keyed table tracks the same per tenant. Time is simulated:
// each loop iteration is one "minute" ending in an explicit Rotate
// (production would call AutoRotate once and let the Width-ticker
// drive it). Traffic has a daily-life shape — a steady base, a burst,
// then silence — so the window visibly rises and, crucially, falls
// again as burst epochs expire: a plain sketch only ever goes up.
//
// Run: go run ./examples/slidingwindow
package main

import (
	"fmt"
	"time"

	fcds "github.com/fcds/fcds"
)

const (
	slots     = 5 // window = last 5 "minutes"
	writersN  = 2
	baseUsers = 800  // users active every minute
	burstSize = 4000 // extra one-off users per burst minute
)

func main() {
	sitewide := fcds.NewWindowedTheta(fcds.WindowedThetaConfig{
		Sketch: fcds.ConcurrentThetaConfig{K: 16384, Writers: writersN},
		Window: fcds.WindowConfig{Slots: slots, Width: time.Minute},
	})
	defer sitewide.Close()

	perTenant := fcds.NewWindowedThetaTable(
		fcds.ThetaTableConfig{
			Table: fcds.TableConfig{Writers: 1},
			K:     2048,
		},
		fcds.WindowConfig{Slots: slots, Width: time.Minute, Pool: sitewide.Pool()},
	)
	defer perTenant.Close()

	fmt.Printf("sliding window: %d slots x 1m; window relaxation r = %d\n\n",
		slots, sitewide.RelaxationPerEpoch())
	fmt.Println("minute  traffic          window-uniques  acme-window  notes")

	tw := perTenant.Writer(0)
	for minute := 0; minute < 14; minute++ {
		traffic, note := "base", ""
		var burst int
		switch {
		case minute >= 3 && minute <= 4:
			traffic, burst = "base+burst", burstSize
			note = "burst enters the window"
		case minute == 5:
			note = "burst over; epochs still in window"
		case minute == 9:
			note = "last burst epoch expired"
		case minute >= 11:
			traffic = "silence"
			note = "only fresh epochs remain"
		}

		// One "minute" of traffic through the batch pipeline. The same
		// base users return every minute (uniques, not volume); burst
		// users are one-off.
		if traffic != "silence" {
			var wg = make(chan struct{}, writersN)
			for wi := 0; wi < writersN; wi++ {
				go func(wi int) {
					defer func() { wg <- struct{}{} }()
					w := sitewide.Writer(wi)
					batch := make([]uint64, 0, 256)
					for u := wi; u < baseUsers+burst; u += writersN {
						id := uint64(u)
						if u >= baseUsers {
							// One-off burst visitor, unique to this minute.
							id = uint64(1_000_000 + minute*100_000 + u)
						}
						batch = append(batch, id)
						if len(batch) == cap(batch) {
							w.UpdateBatch(batch)
							batch = batch[:0]
						}
					}
					w.UpdateBatch(batch)
					w.Flush()
				}(wi)
			}
			for wi := 0; wi < writersN; wi++ {
				<-wg
			}
			// Tenant "acme" sees a slice of the same minute.
			keys := make([]string, 0, 64)
			ids := make([]uint64, 0, 64)
			for u := 0; u < 50+burst/100; u++ {
				keys = append(keys, "acme")
				ids = append(ids, uint64(minute*1_000+u))
			}
			tw.UpdateKeyedBatch(keys, ids)
			perTenant.Drain()
		}

		acme := "-"
		if est, ok := perTenant.QueryWindow("acme"); ok {
			acme = fmt.Sprintf("%8.0f", est)
		}
		fmt.Printf("%5dm  %-15s %14.0f  %11s  %s\n",
			minute, traffic, sitewide.QueryWindow(), acme, note)

		sitewide.Rotate() // the minute ends (AutoRotate in production)
		perTenant.Rotate()
	}

	fmt.Println("\nthe window rises with the burst and falls back after it expires —")
	fmt.Println("a point-in-time sketch would have stayed at its high-water mark.")
}
