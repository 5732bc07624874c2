package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"

	"dcode/internal/blockdev"
	"dcode/internal/obs"
	"dcode/internal/raid"
	"dcode/internal/workload"
)

// checkTallies compares each column's wrapper counts with the array's own
// per-disk tallies for the run so far: physical calls (the device latency
// histograms observe each call once) and bytes moved must be equal.
func (e *env) checkTallies() error {
	snap := e.arr.Snapshot()
	var errs error
	for i, p := range e.probes {
		d := snap.Devices[i]
		got := [4]int64{p.calls[0].Load(), p.calls[1].Load(), p.bytes[0].Load(), p.bytes[1].Load()}
		want := [4]int64{d.ReadLatency.Count, d.WriteLatency.Count, d.BytesRead, d.BytesWritten}
		if got != want {
			errs = errors.Join(errs, fmt.Errorf("column %d: wrapper counts reads/writes/read bytes/written bytes %v, array snapshot %v", i, got, want))
		}
	}
	return errs
}

// readBack reads the whole volume and compares it with what the clients
// wrote.
func (e *env) readBack() error {
	chunk := e.stripeData()
	got := make([]byte, chunk)
	want := make([]byte, chunk)
	size := e.arr.Size()
	for off := int64(0); off < size; off += chunk {
		n := min(chunk, size-off)
		if _, err := e.arr.ReadAt(got[:n], off); err != nil {
			return fmt.Errorf("read-back at %d: %w", off, err)
		}
		e.expect(want[:n], off)
		if !bytes.Equal(got[:n], want[:n]) {
			return fmt.Errorf("read-back mismatch in %d+%d", off, n)
		}
	}
	return nil
}

// wrapperPass shows that wrapping the columns and recording spans leaves
// the engine's path alone: the same seeded, op-bound sequence — writes and
// reads, a failed column with degraded ops, a rebuild and a scrub — runs on
// an array over bare files and on one over traced wrappers, and the per-disk
// tallies and XOR counts must come out identical. The wrapped run's wrapper
// counts must also equal its array's tallies.
func wrapperPass(dir string, seed int64) error {
	bare, err := tallyPass(filepath.Join(dir, "bare"), seed, false)
	if err != nil {
		return err
	}
	wrapped, err := tallyPass(filepath.Join(dir, "wrapped"), seed, true)
	if err != nil {
		return err
	}
	if !slices.Equal(bare.Load.PerDisk, wrapped.Load.PerDisk) {
		return fmt.Errorf("per-disk ops differ: bare %v, wrapped %v", bare.Load.PerDisk, wrapped.Load.PerDisk)
	}
	for i := range bare.Devices {
		if !sameIO(bare.Devices[i], wrapped.Devices[i]) {
			return fmt.Errorf("column %d tallies differ: bare %+v, wrapped %+v", i, bare.Devices[i], wrapped.Devices[i])
		}
	}
	if bare.XOR != wrapped.XOR {
		return fmt.Errorf("XOR tallies differ: bare %+v, wrapped %+v", bare.XOR, wrapped.XOR)
	}
	return nil
}

func sameIO(a, b obs.IOSnapshot) bool {
	return a.Reads == b.Reads && a.Writes == b.Writes && a.BytesRead == b.BytesRead &&
		a.BytesWritten == b.BytesWritten && a.ReadLatency.Count == b.ReadLatency.Count &&
		a.WriteLatency.Count == b.WriteLatency.Count
}

// tallyPass runs the op-bound sequence on a fresh small array and returns
// its snapshot.
func tallyPass(dir string, seed int64, wrap bool) (snap raid.Snapshot, err error) {
	sp := &spec{name: "wrapper-check", stripes: 32, clients: 1, profile: workload.Mixed}
	e, err := setupBare(sp, dir, seed, wrap)
	if err != nil {
		return snap, err
	}
	defer func() { err = errors.Join(err, e.close()) }()
	var t *spanTracer
	if wrap {
		if t, err = e.newSpanTracer(1 << 16); err != nil {
			return snap, err
		}
		defer t.rec.release()
	}
	ops, err := e.genOps(sp.profile, seed)
	if err != nil {
		return snap, err
	}
	const passOps = 600
	for step, failed := 0, 2; step < 2; step++ {
		ph, err := e.runPhase(ops, 0, 0, passOps, t, 0)
		if err != nil {
			return snap, err
		}
		if ph.clients[0].failed > 0 {
			return snap, fmt.Errorf("%d ops failed", ph.clients[0].failed)
		}
		if step == 0 {
			if err := e.arr.FailDisk(failed); err != nil {
				return snap, err
			}
		} else if _, err := e.rebuildOnce(failed, false, t); err != nil {
			return snap, err
		}
	}
	if fixed, err := e.arr.Scrub(); err != nil || fixed != 0 {
		return snap, fmt.Errorf("scrub: %d stripes repaired, err %v", fixed, err)
	}
	if wrap {
		if err := e.checkTallies(); err != nil {
			return snap, err
		}
	}
	return e.arr.Snapshot(), nil
}

// setupBare sets the array up as setup does, then assembles a second array
// over the same filled columns with fresh tallies: over new wrappers when
// wrap is true, over the file devices themselves otherwise.
func setupBare(sp *spec, dir string, seed int64, wrap bool) (*env, error) {
	e, err := setup(sp, dir, seed)
	if err != nil {
		return nil, err
	}
	devs := make([]blockdev.Device, len(e.probes))
	for i, p := range e.probes {
		devs[i] = p.dev
		if wrap {
			e.probes[i] = &probe{dev: p.dev, col: i}
			devs[i] = e.probes[i]
		}
	}
	arr, err := raid.New(e.code, devs, elemSize, sp.stripes, raid.WithConcurrency(0), raid.WithCache(0))
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	e.arr = arr
	return e, nil
}
