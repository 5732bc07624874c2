package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Span kinds: one per boundary the benchmark wraps.
const (
	kindClient  uint8 = iota // blockdev.Remote call in the client loop (net-mixed)
	kindRaid                 // Array.ReadAt/WriteAt (server backend or in-process client loop)
	kindRebuild              // Array.Rebuild
	kindDevice               // one column device call
	numKinds
)

var kindNames = [numKinds]string{"blockserve", "raid", "rebuild", "blockdev"}

// span is one timed call. Times are nanoseconds since the recorder's epoch.
// write marks a write op or device write; col is the column of a device
// call, -1 otherwise.
type span struct {
	id, parent uint64
	start, end int64
	bytes      int64
	kind       uint8
	write      bool
	col        int8
}

// recorder keeps spans in memory until the run ends. The span array is
// mapped outside the Go heap: recording then allocates nothing, and the
// spans held neither raise the collector's heap goal nor get scanned, so
// the traced half collects garbage as the untraced half does. Spans past
// the capacity are dropped and counted.
type recorder struct {
	epoch   time.Time
	nextID  atomic.Uint64
	mem     []byte
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder(capacity int) (*recorder, error) {
	mem, err := syscall.Mmap(-1, 0, capacity*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping span memory: %w", err)
	}
	// span holds no pointers, so memory the collector does not know is
	// safe to keep it in.
	spans := unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), capacity)[:0]
	return &recorder{epoch: time.Now(), mem: mem, spans: spans}, nil
}

// release unmaps the span memory; the recorder and any span slice taken
// from it must not be used afterwards.
func (r *recorder) release() {
	if err := syscall.Munmap(r.mem); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: unmapping span memory: %v\n", err)
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far and the dropped count.
func (r *recorder) snapshot() ([]span, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans, r.dropped
}

// spanTracer is the traced run's shared state: the span recorder plus the
// span each client and the rebuild loop currently have open, which is how a
// device call finds its parent. Clients own disjoint, stripe-aligned
// regions of the volume, so the stripe a device call touches names the
// client whose op caused it; while Rebuild runs it holds the array
// exclusively, so device calls then belong to the rebuild.
type spanTracer struct {
	rec           *recorder
	stripeBytes   int64 // bytes of one stripe on one column
	clientStripes int64 // stripes in one client's region
	// opSpan[c] is client c's open Remote call (net-mixed), raidSpan[c] its
	// open Array call; rebuildSpan is the open Rebuild. Zero means none.
	opSpan      []atomic.Uint64
	raidSpan    []atomic.Uint64
	rebuildSpan atomic.Uint64
}

func (t *spanTracer) deviceParent(off int64) uint64 {
	if id := t.rebuildSpan.Load(); id != 0 {
		return id
	}
	c := min(off/t.stripeBytes/t.clientStripes, int64(len(t.raidSpan)-1))
	return t.raidSpan[c].Load()
}

// openRaid starts client c's Array call span under parent.
func (t *spanTracer) openRaid(c int, parent uint64, write bool) span {
	s := span{id: t.rec.newID(), parent: parent, start: t.rec.now(), kind: kindRaid, write: write, col: -1}
	t.raidSpan[c].Store(s.id)
	return s
}

// closeRaid ends and records a span openRaid started.
func (t *spanTracer) closeRaid(c int, s span, n int) {
	t.raidSpan[c].Store(0)
	s.end, s.bytes = t.rec.now(), int64(n)
	t.rec.add(s)
}

// openClient starts client c's op span: a Remote call on a net workload,
// the Array call itself otherwise.
func (t *spanTracer) openClient(c int, net, write bool) span {
	if !net {
		return t.openRaid(c, 0, write)
	}
	s := span{id: t.rec.newID(), start: t.rec.now(), kind: kindClient, write: write, col: -1}
	t.opSpan[c].Store(s.id)
	return s
}

// closeClient ends and records a span openClient started.
func (t *spanTracer) closeClient(c int, s span, n int) {
	if s.kind == kindRaid {
		t.closeRaid(c, s, n)
		return
	}
	t.opSpan[c].Store(0)
	s.end, s.bytes = t.rec.now(), int64(n)
	t.rec.add(s)
}

// unionLen returns the total length the spans idx name cover, clipped to
// [lo, hi). idx must be sorted by start.
func unionLen(spans []span, idx []int32, lo, hi int64) int64 {
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, i := range idx {
		s := &spans[i]
		if s.start > curHi {
			flush()
			curLo, curHi = s.start, s.end
		} else if s.end > curHi {
			curHi = s.end
		}
	}
	flush()
	return total
}

// spanStats is what the per-layer metrics need from a window's spans.
type spanStats struct {
	wallNs  int64
	count   [numKinds]int64
	durNs   [numKinds]int64 // summed span durations
	selfNs  [numKinds]int64 // summed durations minus child coverage
	busyNs  [numKinds]int64 // union of the kind's spans
	readNs  int64           // raid spans that read
	reads   int64
	writeNs int64 // raid spans that write
	writes  int64
	// colBusyMax is the busiest column's union of device spans.
	colBusyMax int64
	// slotWaitNs approximates the wait for a one-slot Delayed column: the
	// part of each device call before the previous call on the same column
	// ended (see README.md).
	slotWaitNs     int64
	spans, dropped int64
}

// analyze derives per-layer busy and self time from the spans of a traced
// phase that ran over [lo, hi). It works on index slices sorted in place of
// the spans themselves, so a phase of millions of spans needs a few bytes
// per span beyond the spans.
func analyze(spans []span, dropped int64, lo, hi int64, slotted bool) spanStats {
	st := spanStats{wallNs: hi - lo, dropped: dropped, spans: int64(len(spans))}
	var maxID uint64
	for i := range spans {
		s := &spans[i]
		d := s.end - s.start
		st.count[s.kind]++
		st.durNs[s.kind] += d
		if s.kind == kindRaid {
			if s.write {
				st.writes++
				st.writeNs += d
			} else {
				st.reads++
				st.readNs += d
			}
		}
		maxID = max(maxID, s.id)
	}
	pos := make([]int32, maxID+1) // span index + 1 by id; 0: not kept
	idx := make([]int32, len(spans))
	for i := range spans {
		pos[spans[i].id] = int32(i) + 1
		idx[i] = int32(i)
	}

	// Self time: each parent's duration minus the union of its children,
	// clipped to the parent. Sorting by (parent, start) puts each parent's
	// children together.
	byParent := idx[:0:0]
	for _, i := range idx {
		if p := spans[i].parent; p != 0 && p <= maxID && pos[p] != 0 {
			byParent = append(byParent, i)
		}
	}
	sort.Slice(byParent, func(a, b int) bool {
		x, y := &spans[byParent[a]], &spans[byParent[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	var covered [numKinds]int64
	for a := 0; a < len(byParent); {
		b := a
		for b < len(byParent) && spans[byParent[b]].parent == spans[byParent[a]].parent {
			b++
		}
		parent := &spans[pos[spans[byParent[a]].parent]-1]
		covered[parent.kind] += unionLen(spans, byParent[a:b], parent.start, parent.end)
		a = b
	}
	for k := range st.selfNs {
		st.selfNs[k] = st.durNs[k] - covered[k]
	}

	// Busy time per kind, and per column for device calls: sort by (kind,
	// col, start) and take the union of each run.
	sort.Slice(idx, func(a, b int) bool {
		x, y := &spans[idx[a]], &spans[idx[b]]
		if x.kind != y.kind {
			return x.kind < y.kind
		}
		if x.kind == kindDevice && x.col != y.col {
			return x.col < y.col
		}
		return x.start < y.start
	})
	for a := 0; a < len(idx); {
		k := spans[idx[a]].kind
		b := a
		for b < len(idx) && spans[idx[b]].kind == k {
			b++
		}
		if k != kindDevice {
			st.busyNs[k] = unionLen(spans, idx[a:b], lo, hi)
			a = b
			continue
		}
		// Device spans are sorted by column, then start; the union over
		// all columns needs them by start alone, so re-sort after.
		for c := a; c < b; {
			col := spans[idx[c]].col
			d := c
			for d < b && spans[idx[d]].col == col {
				d++
			}
			st.colBusyMax = max(st.colBusyMax, unionLen(spans, idx[c:d], lo, hi))
			if slotted {
				st.slotWaitNs += slotWait(spans, idx[c:d])
			}
			c = d
		}
		dev := idx[a:b]
		sort.Slice(dev, func(x, y int) bool { return spans[dev[x]].start < spans[dev[y]].start })
		st.busyNs[k] = unionLen(spans, dev, lo, hi)
		a = b
	}
	return st
}

// slotWait sums, over one column's calls, the time each call spent before
// the call served ahead of it ended. With one service slot the calls are
// served one at a time in end order, so that is the wait for the slot. It
// sorts idx by end.
func slotWait(spans []span, idx []int32) int64 {
	sort.Slice(idx, func(a, b int) bool {
		x, y := &spans[idx[a]], &spans[idx[b]]
		return x.end < y.end || x.end == y.end && x.start < y.start
	})
	var wait int64
	for i := 1; i < len(idx); i++ {
		prev, cur := &spans[idx[i-1]], &spans[idx[i]]
		if w := prev.end - cur.start; w > 0 {
			wait += min(w, cur.end-cur.start)
		}
	}
	return wait
}

// writeSpans writes spans as tab-separated text, one per line, with a
// header naming the columns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	_, err = w.WriteString("id\tparent\tlayer\twrite\tcol\tstart_ns\tend_ns\tbytes\n")
	var line []byte
	for i := 0; i < len(spans) && err == nil; i++ {
		s := &spans[i]
		line = strconv.AppendUint(line[:0], s.id, 10)
		line = strconv.AppendUint(append(line, '\t'), s.parent, 10)
		line = append(append(append(line, '\t'), kindNames[s.kind]...), '\t')
		line = strconv.AppendBool(line, s.write)
		line = strconv.AppendInt(append(line, '\t'), int64(s.col), 10)
		line = strconv.AppendInt(append(line, '\t'), s.start, 10)
		line = strconv.AppendInt(append(line, '\t'), s.end, 10)
		line = strconv.AppendInt(append(line, '\t'), s.bytes, 10)
		_, err = w.Write(append(line, '\n'))
	}
	if err != nil {
		return errors.Join(err, f.Close())
	}
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
