package main

import (
	"sync/atomic"

	"dcode/internal/blockdev"
)

// probe is the benchmark's own wrapper around one column device. It counts
// physical calls and bytes moved, and in a traced run records one span per
// call. It does not implement blockdev.LinkedDevice, so the array drives it
// exactly as it drives the file device underneath.
type probe struct {
	dev blockdev.Device
	col int
	tr  atomic.Pointer[spanTracer] // nil: count only

	calls [2]atomic.Int64 // [0] reads, [1] writes
	bytes [2]atomic.Int64
}

func (p *probe) begin() int64 {
	if t := p.tr.Load(); t != nil {
		return t.rec.now()
	}
	return 0
}

func (p *probe) done(start int64, write bool, off int64, n int) {
	w := 0
	if write {
		w = 1
	}
	p.calls[w].Add(1)
	p.bytes[w].Add(int64(n))
	t := p.tr.Load()
	if t == nil {
		return
	}
	t.rec.add(span{
		id:     t.rec.newID(),
		parent: t.deviceParent(off),
		start:  start,
		end:    t.rec.now(),
		bytes:  int64(n),
		kind:   kindDevice,
		write:  write,
		col:    int8(p.col),
	})
}

func (p *probe) ReadAt(b []byte, off int64) (int, error) {
	t := p.begin()
	n, err := p.dev.ReadAt(b, off)
	p.done(t, false, off, n)
	return n, err
}

func (p *probe) WriteAt(b []byte, off int64) (int, error) {
	t := p.begin()
	n, err := p.dev.WriteAt(b, off)
	p.done(t, true, off, n)
	return n, err
}

func (p *probe) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	t := p.begin()
	n, err := p.dev.ReadVecAt(bufs, off)
	p.done(t, false, off, n)
	return n, err
}

func (p *probe) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	t := p.begin()
	n, err := p.dev.WriteVecAt(bufs, off)
	p.done(t, true, off, n)
	return n, err
}

func (p *probe) Size() int64 { return p.dev.Size() }

func (p *probe) Close() error { return p.dev.Close() }

// probeTotals sums the counters of every column.
type probeTotals struct {
	calls       [2]int64
	bytes       [2]int64
	perColCalls []int64
}

func totals(ps []*probe) probeTotals {
	t := probeTotals{perColCalls: make([]int64, len(ps))}
	for i, p := range ps {
		for w := 0; w < 2; w++ {
			t.calls[w] += p.calls[w].Load()
			t.bytes[w] += p.bytes[w].Load()
		}
		t.perColCalls[i] = p.calls[0].Load() + p.calls[1].Load()
	}
	return t
}

func (t probeTotals) sub(o probeTotals) probeTotals {
	d := probeTotals{perColCalls: make([]int64, len(t.perColCalls))}
	for w := 0; w < 2; w++ {
		d.calls[w] = t.calls[w] - o.calls[w]
		d.bytes[w] = t.bytes[w] - o.bytes[w]
	}
	for i := range d.perColCalls {
		d.perColCalls[i] = t.perColCalls[i] - o.perColCalls[i]
	}
	return d
}
