package raid

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dcode/internal/blockdev"
	"dcode/internal/codes"
	"dcode/internal/erasure"
)

// callRec is one physical device call as a column saw it.
type callRec struct {
	col   int
	write bool
	err   bool
}

// callLog orders the physical calls of every column in one sequence.
type callLog struct {
	mu    sync.Mutex
	calls []callRec
}

func (l *callLog) add(c callRec) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

// take returns the calls logged since the last take.
func (l *callLog) take() []callRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.calls
	l.calls = nil
	return out
}

// faultDev logs every call of its column into a shared callLog and, when
// told, fails reads or writes with blockdev.ErrFailed without touching the
// device underneath.
type faultDev struct {
	blockdev.Device
	col                   int
	log                   *callLog
	failReads, failWrites atomic.Bool
}

func (d *faultDev) call(write bool, fn func() (int, error)) (int, error) {
	fail := d.failReads.Load()
	if write {
		fail = d.failWrites.Load()
	}
	n, err := 0, error(blockdev.ErrFailed)
	if !fail {
		n, err = fn()
	}
	d.log.add(callRec{col: d.col, write: write, err: err != nil})
	return n, err
}

func (d *faultDev) ReadAt(p []byte, off int64) (int, error) {
	return d.call(false, func() (int, error) { return d.Device.ReadAt(p, off) })
}

func (d *faultDev) WriteAt(p []byte, off int64) (int, error) {
	return d.call(true, func() (int, error) { return d.Device.WriteAt(p, off) })
}

func (d *faultDev) ReadVecAt(bufs [][]byte, off int64) (int, error) {
	return d.call(false, func() (int, error) { return d.Device.ReadVecAt(bufs, off) })
}

func (d *faultDev) WriteVecAt(bufs [][]byte, off int64) (int, error) {
	return d.call(true, func() (int, error) { return d.Device.WriteVecAt(bufs, off) })
}

// checkCacheMatchesDevices compares every cached cell of a healthy column
// with the device bytes underneath it.
func checkCacheMatchesDevices(t *testing.T, a *Array, mems []*blockdev.MemDevice) {
	t.Helper()
	if a.cache == nil {
		return
	}
	got := make([]byte, elemSize)
	want := make([]byte, elemSize)
	for si := int64(0); si < a.stripes; si++ {
		for r := 0; r < a.code.Rows(); r++ {
			for c := 0; c < a.code.Cols(); c++ {
				co := erasure.Coord{Row: r, Col: c}
				if a.isFailed(c) || !a.cacheGet(si, co, got) {
					continue
				}
				if _, err := mems[c].ReadAt(want, a.deviceOffset(si, r)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("stripe %d cell %v: cached bytes differ from the device", si, co)
				}
			}
		}
	}
}

// TestStripeRMWFaultsAndOptions drives a five-element partial write inside
// one stripe — partial at both ends, so it takes read-modify-write — under
// each engine option, healthy and with a column failing in each phase. It
// pins the stripe-granular RMW contract: all reads (the gather) precede all
// writes (the commit), at most one read and one write call per coalesced
// column run; a gather failure commits nothing before the degraded retry; a
// commit failure leaves every byte readable and the stripe scrub-clean after
// Rebuild; and the cache stays equal to the devices.
func TestStripeRMWFaultsAndOptions(t *testing.T) {
	for _, id := range []string{"dcode", "rdp"} {
		for _, tc := range []struct {
			name    string
			journal bool
			opts    []Option
		}{
			{"sync", false, []Option{WithConcurrency(1)}},
			{"fanout", false, []Option{WithConcurrency(4)}},
			{"async", false, []Option{WithAsyncIO(8)}},
			{"cache", false, []Option{WithCache(1 << 20)}},
			{"journal", true, nil},
		} {
			t.Run(id+"/"+tc.name, func(t *testing.T) {
				testStripeRMW(t, id, tc.journal, tc.opts)
			})
		}
	}
}

func testStripeRMW(t *testing.T, id string, journal bool, opts []Option) {
	const (
		p       = 7
		stripes = 3
		si      = 1
	)
	code := codes.MustNew(id, p)
	log := &callLog{}
	mems := make([]*blockdev.MemDevice, code.Cols())
	fdevs := make([]*faultDev, code.Cols())
	devs := make([]blockdev.Device, code.Cols())
	for c := range devs {
		mems[c] = blockdev.NewMem(stripes * int64(code.Rows()) * elemSize)
		fdevs[c] = &faultDev{Device: mems[c], col: c, log: log}
		devs[c] = fdevs[c]
	}
	var a *Array
	var err error
	if journal {
		a, err = NewJournaled(code, devs, elemSize, stripes, blockdev.NewMem(4096), opts...)
	} else {
		a, err = New(code, devs, elemSize, stripes, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	model := pattern(int(a.Size()), 1)
	if _, err := a.WriteAt(model, 0); err != nil {
		t.Fatal(err)
	}
	// Elements 3..7 of stripe si, crossing a row boundary, cut 10 bytes
	// into the first and 10 bytes short of the end of the last.
	d := code.DataElems()
	const lo = 3
	off := int64(si*d+lo)*elemSize + 10
	n := 4 * elemSize

	// The gather set, and the columns the first element's own RMW would
	// touch: an element-at-a-time engine commits that element before
	// reading anything else.
	var gather []erasure.Coord
	touched := make([]bool, len(code.Groups()))
	for i := lo; i < lo+5; i++ {
		co := code.DataCoord(i)
		gather = append(gather, co)
		for _, gi := range code.UpdateGroups(co.Row, co.Col) {
			touched[gi] = true
		}
	}
	for gi, g := range code.Groups() {
		if touched[gi] {
			gather = append(gather, g.Parity)
		}
	}
	first := map[int]bool{code.DataCoord(lo).Col: true}
	for _, gi := range code.UpdateGroups(code.DataCoord(lo).Row, code.DataCoord(lo).Col) {
		first[code.Groups()[gi].Parity.Col] = true
	}
	gatherCol, commitCol := -1, -1
	for _, co := range gather {
		if !first[co.Col] {
			gatherCol = co.Col
		}
	}
	if gatherCol < 0 {
		t.Fatal("every gathered column is touched by the first element; pick another range")
	}
	for _, co := range gather {
		if co.Col != gatherCol {
			commitCol = co.Col
		}
	}

	write := func(seed byte) {
		t.Helper()
		buf := pattern(n, seed)
		if _, err := a.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		copy(model[off:], buf)
	}
	verify := func(when string) {
		t.Helper()
		got := make([]byte, a.Size())
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("%s: volume differs from the byte model", when)
		}
		checkCacheMatchesDevices(t, a, mems)
	}
	rebuildAndScrub := func(col int) {
		t.Helper()
		fdevs[col].failReads.Store(false)
		fdevs[col].failWrites.Store(false)
		if err := a.Rebuild(col); err != nil {
			t.Fatal(err)
		}
		if fixed, err := a.Scrub(); err != nil || fixed != 0 {
			t.Fatalf("scrub after rebuilding disk %d: fixed %d, err %v", col, fixed, err)
		}
	}

	// Healthy: one gather, then one commit, each at most one call per
	// coalesced column run, and the write counted as five RMW element
	// updates. A column holding a data cell and a parity cell in rows that
	// are not adjacent has two runs, so the bound is per run, not per column.
	runs := len(coalesce(slices.Clone(gather), &opScratch{}))
	st0 := a.Stats()
	log.take()
	write(2)
	calls := log.take()
	cols := map[int]bool{}
	lastRead, firstWrite := -1, len(calls)
	for i, c := range calls {
		cols[c.col] = true
		if c.write {
			firstWrite = min(firstWrite, i)
		} else {
			lastRead = i
		}
	}
	if lastRead > firstWrite {
		t.Errorf("read at call %d after the first write at call %d: want one gather, then one commit", lastRead, firstWrite)
	}
	if len(calls) > 2*runs {
		t.Errorf("%d device calls for %d column runs, want ≤ %d", len(calls), runs, 2*runs)
	}
	st1 := a.Stats()
	if st1.RMWWrites-st0.RMWWrites != 5 || st1.FullStripeWrites != st0.FullStripeWrites {
		t.Errorf("RMW updates +%d, full-stripe writes +%d; want +5, +0",
			st1.RMWWrites-st0.RMWWrites, st1.FullStripeWrites-st0.FullStripeWrites)
	}
	verify("healthy RMW")

	// Gather failure: nothing is written before the failing read; the
	// degraded retry then lands the write.
	a.cacheInvalidateStripe(si) // make the gather reach the devices
	fdevs[gatherCol].failReads.Store(true)
	fdevs[gatherCol].failWrites.Store(true)
	log.take()
	write(3)
	calls = log.take()
	failAt := slices.IndexFunc(calls, func(c callRec) bool { return c.err })
	if failAt < 0 || calls[failAt].write {
		t.Fatalf("disk %d: no failing read in %+v", gatherCol, calls)
	}
	if w := slices.IndexFunc(calls[:failAt], func(c callRec) bool { return c.write }); w >= 0 {
		t.Errorf("disk %d written at call %d, before the gather failed at call %d", calls[w].col, w, failAt)
	}
	if !slices.Equal(a.FailedDisks(), []int{gatherCol}) {
		t.Fatalf("FailedDisks = %v, want [%d]", a.FailedDisks(), gatherCol)
	}
	verify("after a gather failure")
	rebuildAndScrub(gatherCol)
	verify("after rebuilding the gather failure")

	// Commit failure: the column's writes fail after a clean gather; every
	// byte stays readable, and Rebuild restores a scrub-clean stripe.
	fdevs[commitCol].failWrites.Store(true)
	write(4)
	if !slices.Equal(a.FailedDisks(), []int{commitCol}) {
		t.Fatalf("FailedDisks = %v, want [%d]", a.FailedDisks(), commitCol)
	}
	verify("after a commit failure")
	rebuildAndScrub(commitCol)
	verify("after rebuilding the commit failure")
}
