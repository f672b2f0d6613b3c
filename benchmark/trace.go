package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one call the benchmark makes into a layer (or one pass or
// stage that groups such calls). Spans are recorded from the
// benchmark's own files only; spans inside the program are a later
// change.
type span struct {
	ID, Parent spanID
	Name       string
	Start, End int64 // ns since the trace began
	Pass       int32
}

// spanID is lane<<24 | (index in lane + 1); 0 means "no span".
type spanID int32

// Lanes: one per goroutine that records spans, so recording takes no
// lock. Lane 0 is the coordinator, lane 1+g generator g.
const lanes = 1 + generators

type tracer struct {
	t0   time.Time
	on   bool // spans are recorded only while on
	lane [lanes][]span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), on: true} }

// begin opens a span on a lane; a nil or switched-off tracer returns 0,
// which end ignores, so untraced runs pay one branch per call.
func (t *tracer) begin(lane int, name string, parent spanID, pass int) spanID {
	if t == nil || !t.on {
		return 0
	}
	l := &t.lane[lane]
	id := spanID(lane<<24 | (len(*l) + 1))
	*l = append(*l, span{ID: id, Parent: parent, Name: name, Pass: int32(pass), Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id spanID) {
	if id == 0 {
		return
	}
	t.lane[id>>24][id&(1<<24-1)-1].End = int64(time.Since(t.t0))
}

func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	var all []span
	for _, l := range t.lane {
		all = append(all, l...)
	}
	return all
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other:
// two generators run under one pass).
func selfTimes(spans []span) map[spanID]int64 {
	kids := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[spanID]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfShare is the summed self time of the spans called name over their
// summed duration.
func selfShare(spans []span, name string) float64 {
	self := selfTimes(spans)
	var own, total int64
	for _, s := range spans {
		if s.Name == name {
			own += self[s.ID]
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}

// passCounters is one reading of the front's counters at a pass
// boundary, written into the trace beside the spans.
type passCounters struct {
	pass    int
	at      int64
	c       counters
	mallocs uint64
}

// writeTrace writes the spans and counter readings as JSON lines.
func writeTrace(path, workload string, spans []span, readings []passCounters) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	for _, s := range spans {
		fmt.Fprintf(w, `{"type":"span","id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d,"workload":%q,"pass":%d}`+"\n",
			s.ID, s.Parent, s.Name, s.Start, s.End, self[s.ID], workload, s.Pass)
	}
	for _, r := range readings {
		fmt.Fprintf(w, `{"type":"counters","workload":%q,"pass":%d,"at_ns":%d,"cache_hits":%d,"shard_lookups":%d,"promotions":%d,"demotions":%d,"pool_runs":%d,"pool_steals":%d,"pool_wakes":%d,"pool_depth":%d,"server_frames":%d,"server_items":%d,"server_errors":%d,"mallocs":%d}`+"\n",
			workload, r.pass, r.at, r.c.cacheHits, r.c.shardLookups, r.c.promotions, r.c.demotions,
			r.c.poolRuns, r.c.poolSteals, r.c.poolWakes, r.c.poolDepth, r.c.srvFrames, r.c.srvItems, r.c.srvErrors, r.mallocs)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
