package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"dcode/internal/blockdev"
	"dcode/internal/workload"
)

// spec is one workload. README.md records why each was chosen.
type spec struct {
	name    string
	stripes int64 // stripes per column
	clients int   // closed-loop clients, one goroutine (and connection) each
	profile workload.Profile
	// net: clients are blockdev.Remote over loopback TCP to a
	// blockserve.Server in this process; otherwise they call the Array.
	net bool
	// degraded: one column is failed for the whole window.
	degraded bool
	// delay > 0 puts every column behind a one-slot blockdev.Delayed with
	// this per-call positioning delay.
	delay time.Duration
	// conc is the array's fan-out bound; 0 keeps the default, GOMAXPROCS.
	conc int
	// rebuild: the window runs FailDisk→Rebuild→healthy cycles, rotating
	// the column, alongside the clients; healthy is the healthy interval.
	rebuild bool
	healthy time.Duration
	// tail is the latency percentile reported as read_tail_ms and
	// write_tail_ms (see README.md for why it differs per workload).
	tail float64
	// parts is how many set-ups an untraced run's window is spread over,
	// and slices how many equal slices each part is cut into. Throughput
	// and latency are the median over all slices, so neither one array nor
	// a stall on a shared host sets the result.
	parts, slices int
	// warmup is how long the clients run, checked but not measured, before
	// each window starts.
	warmup time.Duration
}

var specs = []*spec{
	{name: "net-mixed", stripes: 512, clients: 2, profile: workload.Mixed, net: true, tail: 0.80,
		parts: 5, slices: 2, warmup: 300 * time.Millisecond},
	{name: "degraded-read", stripes: 512, clients: 2, profile: workload.ReadOnly, degraded: true, tail: 0.90,
		parts: 5, slices: 2, warmup: 300 * time.Millisecond},
	{name: "disk-rebuild", stripes: 24, clients: 1, profile: workload.ReadIntensive,
		delay: 100 * time.Microsecond, conc: 7, rebuild: true, healthy: 200 * time.Millisecond, tail: 0.98,
		parts: 1, slices: 1},
}

func specByName(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// The paper's <S,L,T> generator settings: L in [1,20] and T = 1. With the
// element cache off a repeat only replays an op, so every op is distinct
// instead. A client replays its trace cyclically; traceOps is enough that
// the slow disk-rebuild client does not repeat an op within 30 s.
const (
	traceOps = 4000
	maxLen   = 20
	maxTimes = 1
)

// genOps returns each client's op list for profile, drawn from seed.
func (e *env) genOps(profile workload.Profile, seed int64) ([][]workload.Op, error) {
	out := make([][]workload.Op, e.spec.clients)
	for c := range out {
		ops, err := workload.Generate(workload.Config{
			Ops:       traceOps,
			MaxLen:    maxLen,
			MaxTimes:  maxTimes,
			DataElems: int(e.clientStripes()) * e.code.DataElems(),
			Seed:      seed*1000 + int64(c),
		}, profile)
		if err != nil {
			return nil, err
		}
		out[c] = ops
	}
	return out, nil
}

// target is what a client drives: a *blockdev.Remote or the *raid.Array.
type target interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
}

// window is a phase's measured interval, cut into equal slices. Ops that
// complete before start belong to the warm-up.
type window struct {
	start, deadline time.Time
	slices          int
}

// slice returns the slice an op completing at done belongs to; ops that
// complete after the deadline fall in the last.
func (w window) slice(done time.Time) int {
	i := int(int64(done.Sub(w.start)) * int64(w.slices) / int64(w.deadline.Sub(w.start)))
	return max(min(i, w.slices-1), 0)
}

// sliceStats is one slice's tally: latency of every successful op
// completing in it, and the verified bytes of those that completed before
// the deadline (throughput) over the slice's length in seconds.
type sliceStats struct {
	read, write histogram
	bytes       int64
	secs        float64
}

// clientStats is one client's tally for one phase. okReadBytes and
// okWriteBytes count every successful op (per-layer ratios).
type clientStats struct {
	slices                    []*sliceStats
	okReadBytes, okWriteBytes int64
	attempted, failed         int64
}

// runClient is one closed-loop client: it replays ops cyclically over its
// own region until the deadline (or until maxOps ops when maxOps > 0). A
// write stores the next version of each element's pattern, and every read
// is checked against the versions written so far.
func (e *env) runClient(c int, tgt target, ops []workload.Op, w window, maxOps int64, t *spanTracer, st *clientStats) {
	st.slices = make([]*sliceStats, w.slices)
	for i := range st.slices {
		st.slices[i] = new(sliceStats)
	}
	base := int64(c) * e.regionBytes()
	regionEnd := base + e.regionBytes()
	buf := make([]byte, maxLen*elemSize)
	want := make([]byte, maxLen*elemSize)
	logged := false
	for i := 0; ; i++ {
		op := ops[i%len(ops)]
		off := base + int64(op.S)*elemSize
		n := min(int64(op.L)*elemSize, regionEnd-off)
		write := op.Kind == workload.Write
		for r := 0; r < op.T; r++ {
			if (maxOps > 0 && st.attempted >= maxOps) || !time.Now().Before(w.deadline) {
				return
			}
			st.attempted++
			if write {
				for el := off / elemSize; el < (off+n)/elemSize; el++ {
					e.vers[el]++
				}
				e.expect(buf[:n], off)
			}
			var sp span
			if t != nil {
				sp = t.openClient(c, e.spec.net, write)
			}
			var err error
			start := time.Now()
			if write {
				_, err = tgt.WriteAt(buf[:n], off)
			} else {
				_, err = tgt.ReadAt(buf[:n], off)
			}
			done := time.Now()
			lat := done.Sub(start)
			if t != nil {
				t.closeClient(c, sp, int(n))
			}
			if err == nil && !write {
				e.expect(want[:n], off)
				if !bytes.Equal(buf[:n], want[:n]) {
					err = fmt.Errorf("data mismatch at %d+%d", off, n)
				}
			}
			if err != nil {
				st.failed++
				if !logged {
					fmt.Fprintf(os.Stderr, "perfbench: client %d: %v\n", c, err)
					logged = true
				}
				continue
			}
			if write {
				st.okWriteBytes += n
			} else {
				st.okReadBytes += n
			}
			if done.Before(w.start) {
				continue // a warm-up op: checked and counted, not measured
			}
			sl := st.slices[w.slice(done)]
			if write {
				sl.write.add(int64(lat))
			} else {
				sl.read.add(int64(lat))
			}
			if !done.After(w.deadline) {
				sl.bytes += n
			}
		}
	}
}

// rebuildSample is one timed Array.Rebuild with the device and XOR work
// done during it.
type rebuildSample struct {
	dur            time.Duration
	dev            probeTotals
	xorEnc, xorDec int64
}

// rebuildOnce fails column col (unless it is failed already) and rebuilds
// it, timing the Rebuild call.
func (e *env) rebuildOnce(col int, fail bool, t *spanTracer) (rebuildSample, error) {
	if fail {
		if err := e.arr.FailDisk(col); err != nil {
			return rebuildSample{}, err
		}
	}
	before, xorBefore := totals(e.probes), e.arr.Snapshot().XOR
	var sp span
	if t != nil {
		sp = span{id: t.rec.newID(), start: t.rec.now(), kind: kindRebuild, col: int8(col)}
		t.rebuildSpan.Store(sp.id)
	}
	start := time.Now()
	err := e.arr.Rebuild(col)
	dur := time.Since(start)
	if t != nil {
		t.rebuildSpan.Store(0)
		sp.end = t.rec.now()
		t.rec.add(sp)
	}
	after, xorAfter := totals(e.probes), e.arr.Snapshot().XOR
	if err != nil {
		return rebuildSample{}, fmt.Errorf("rebuild of column %d: %w", col, err)
	}
	return rebuildSample{dur: dur, dev: after.sub(before), xorEnc: xorAfter.EncodeOps - xorBefore.EncodeOps,
		xorDec: xorAfter.DecodeOps - xorBefore.DecodeOps}, nil
}

// columnBytes is what one Rebuild restores.
func (e *env) columnBytes() int64 { return e.spec.stripes * int64(e.code.Rows()) * elemSize }

// phase is the outcome of running the clients (and the rebuild cycles) once.
type phase struct {
	window   window
	clients  []clientStats
	rebuilds []rebuildSample
	retries  int64
	// rebuildAttempted/rebuildFailed count the rebuild cycles.
	rebuildAttempted, rebuildFailed int64
}

// runPhase runs every client against the array — over the network on a net
// workload — for warmup and then a window of seconds, or until maxOps ops
// per client when maxOps > 0, with the rebuild cycles alongside when the
// workload has them.
func (e *env) runPhase(ops [][]workload.Op, seconds float64, warmup time.Duration, maxOps int64, t *spanTracer, firstCol int) (*phase, error) {
	targets := make([]target, e.spec.clients)
	var remotes []*blockdev.Remote
	defer func() {
		for _, r := range remotes {
			_ = r.Close() // the phase is over; Close only drops the idle connection
		}
	}()
	for c := range targets {
		if !e.spec.net {
			targets[c] = e.arr
			continue
		}
		r, err := blockdev.DialRemote(e.ln.Addr().String(), blockdev.WithPool(1),
			blockdev.WithRequestTimeout(5*time.Second), blockdev.WithRetry(4, 10*time.Millisecond))
		if err != nil {
			return nil, err
		}
		remotes = append(remotes, r)
		targets[c] = r
	}
	ph := &phase{clients: make([]clientStats, e.spec.clients)}
	e.setTracer(t)
	defer e.setTracer(nil)
	w := window{start: time.Now().Add(warmup), slices: e.spec.slices}
	w.deadline = w.start.Add(time.Duration(seconds * float64(time.Second)))
	if maxOps > 0 {
		w.deadline, w.slices = w.start.Add(time.Hour), 1
	}
	ph.window = w
	var wg sync.WaitGroup
	for c := range targets {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.runClient(c, targets[c], ops[c], w, maxOps, t, &ph.clients[c])
		}(c)
	}
	var rebuildErr error
	if e.spec.rebuild && maxOps == 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rebuildErr = e.rebuildCycles(firstCol, w.deadline, t, ph)
		}()
	}
	wg.Wait()
	for _, r := range remotes {
		ph.retries += r.Retries()
	}
	return ph, rebuildErr
}

// rebuildCycles repeats FailDisk(c) → Rebuild(c) → healthy interval,
// rotating c from firstCol, until the deadline. The cycle running at the
// deadline completes, so the array ends healthy.
func (e *env) rebuildCycles(firstCol int, deadline time.Time, t *spanTracer, ph *phase) error {
	var errs error
	for i := 0; time.Now().Before(deadline); i++ {
		col := (firstCol + i) % e.code.Cols()
		ph.rebuildAttempted++
		s, err := e.rebuildOnce(col, true, t)
		if err != nil {
			ph.rebuildFailed++
			errs = errors.Join(errs, err)
			continue
		}
		ph.rebuilds = append(ph.rebuilds, s)
		if left := time.Until(deadline); left > 0 {
			time.Sleep(min(e.spec.healthy, left))
		}
	}
	return errs
}

// pattern fills p, at most one element, with bytes determined by the volume
// offset off and seed: an xorshift stream seeded from both, so no two
// elements or versions hold the same bytes. (cmd/loadgen's byte ramp repeats
// every 256 bytes, which gives every element of a volume the same bytes and
// would hide a read or write that lands on the wrong element.)
func pattern(p []byte, off, seed int64) {
	x := uint64(off)*0x9E3779B97F4A7C15 ^ uint64(seed)*0xBF58476D1CE4E5B9
	x = (x ^ x>>31) * 0x94D049BB133111EB
	x ^= x >> 29
	if x == 0 {
		x = 1 // xorshift needs a non-zero state
	}
	for len(p) > 0 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if len(p) < 8 {
			for i := range p {
				p[i] = byte(x >> (8 * i))
			}
			return
		}
		binary.LittleEndian.PutUint64(p, x)
		p = p[8:]
	}
}
