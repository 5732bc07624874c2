package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dcode/internal/blockdev"
	"dcode/internal/blockserve"
	"dcode/internal/codes"
	"dcode/internal/erasure"
	"dcode/internal/obs"
	"dcode/internal/raid"
)

// Geometry shared by every workload: D-Code p=7 (7 columns of 7 rows, 35
// data elements per stripe) with 4 KiB elements.
const (
	codeID   = "dcode"
	codeP    = 7
	elemSize = 4096
)

// env is one set-up array with everything the workload drives it through.
type env struct {
	spec    *spec
	dir     string
	seed    int64
	code    *erasure.Code
	arr     *raid.Array
	files   []*blockdev.FileDevice
	probes  []*probe
	backend *backend // net workloads only
	// vers holds each data element's write count; a client writes and
	// checks only the elements of its own region.
	vers []uint32

	srv       *blockserve.Server
	ln        net.Listener
	serveDone chan error
}

// stripeData is the user bytes one stripe holds.
func (e *env) stripeData() int64 { return int64(e.code.DataElems()) * elemSize }

// clientStripes is the number of stripes in each client's region.
func (e *env) clientStripes() int64 { return e.spec.stripes / int64(e.spec.clients) }

// regionBytes is the size of each client's region of the volume.
func (e *env) regionBytes() int64 { return e.clientStripes() * e.stripeData() }

// setup creates the column files, assembles the array the way raidserve
// does by default (flight recorder on, concurrency GOMAXPROCS, no cache),
// fills the volume with the verification pattern and, for a net workload,
// starts the block server on a loopback port.
func setup(sp *spec, dir string, seed int64) (*env, error) {
	entry, err := codes.ByID(codeID)
	if err != nil {
		return nil, err
	}
	code, err := entry.New(codeP)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{spec: sp, dir: dir, seed: seed, code: code,
		vers: make([]uint32, sp.stripes*int64(code.DataElems()))}
	colSize := sp.stripes * int64(code.Rows()) * elemSize
	devs := make([]blockdev.Device, code.Cols())
	for i := range devs {
		fd, err := blockdev.OpenFile(filepath.Join(dir, fmt.Sprintf("disk%d.img", i)), colSize)
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.files = append(e.files, fd)
		var dev blockdev.Device = fd
		if sp.delay > 0 {
			dev = &blockdev.Delayed{Device: fd, Delay: sp.delay, MaxInflight: 1}
		}
		p := &probe{dev: dev, col: i}
		e.probes = append(e.probes, p)
		devs[i] = p
	}
	rec := obs.NewRecorder(obs.DefaultEventCapacity)
	e.arr, err = raid.New(code, devs, elemSize, sp.stripes,
		raid.WithConcurrency(sp.conc), raid.WithCache(0), raid.WithEvents(rec))
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	if err := e.fill(); err != nil {
		return nil, errors.Join(err, e.close())
	}
	if sp.net {
		e.backend = &backend{arr: e.arr, regionBytes: e.regionBytes()}
		e.srv = blockserve.New(e.backend, blockserve.Config{
			MaxClients:  256,
			MaxInflight: 128,
			Events:      rec,
		})
		e.arr.SetServerStats(e.srv.Snapshot)
		e.ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		srv, ln, done := e.srv, e.ln, make(chan error, 1)
		e.serveDone = done
		go func() { done <- srv.Serve(ln) }()
	}
	return e, nil
}

// versionStride separates the patterns of successive versions of an
// element; it is odd, so every version changes every byte.
const versionStride = 0x9E3779B1

// expect fills p with what the volume holds at off, an element boundary:
// each element's pattern for its current version.
func (e *env) expect(p []byte, off int64) {
	for len(p) > 0 {
		n := min(int64(len(p)), elemSize)
		pattern(p[:n], off, e.seed+int64(e.vers[off/elemSize])*versionStride)
		p, off = p[n:], off+n
	}
}

// fill writes the verification pattern over the whole volume in
// stripe-aligned chunks, so every stripe is written whole.
func (e *env) fill() error {
	chunk := e.stripeData()
	buf := make([]byte, chunk)
	size := e.arr.Size()
	for off := int64(0); off < size; off += chunk {
		n := min(chunk, size-off)
		e.expect(buf[:n], off)
		if _, err := e.arr.WriteAt(buf[:n], off); err != nil {
			return fmt.Errorf("fill at %d: %w", off, err)
		}
	}
	return nil
}

// sync writes the column files' dirty pages back, so the kernel's
// writeback of earlier phases does not compete with the next timed one.
func (e *env) sync() error {
	var err error
	for _, f := range e.files {
		err = errors.Join(err, f.Sync())
	}
	return err
}

// stopServer drains the block server and waits for Serve to return.
func (e *env) stopServer() error {
	if e.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	// Serve returns ErrDraining without taking the listener when Shutdown
	// came first; closing it here covers that case (a second Close fails
	// harmlessly).
	_ = e.ln.Close()
	if serr := <-e.serveDone; serr != nil && !errors.Is(serr, blockserve.ErrDraining) {
		err = errors.Join(err, serr)
	}
	e.srv = nil
	return err
}

// close stops the server, closes the column devices and deletes the files.
func (e *env) close() error {
	err := e.stopServer()
	for _, p := range e.probes {
		err = errors.Join(err, p.Close())
	}
	return errors.Join(err, os.RemoveAll(e.dir))
}

// setTracer switches span recording on (t non-nil) or off. Callers switch
// only while no operation is in flight.
func (e *env) setTracer(t *spanTracer) {
	for _, p := range e.probes {
		p.tr.Store(t)
	}
	if e.backend != nil {
		e.backend.tr.Store(t)
	}
}

// newSpanTracer returns a tracer sized for this array's client regions.
func (e *env) newSpanTracer(capacity int) (*spanTracer, error) {
	rec, err := newRecorder(capacity)
	if err != nil {
		return nil, err
	}
	return &spanTracer{
		rec:           rec,
		stripeBytes:   int64(e.code.Rows()) * elemSize,
		clientStripes: e.clientStripes(),
		opSpan:        make([]atomic.Uint64, e.spec.clients),
		raidSpan:      make([]atomic.Uint64, e.spec.clients),
	}, nil
}

// backend is the block server's view of the array: the benchmark's own
// wrapper, which times each Array call on the server side and, in a traced
// run, records it as a raid span under the client op that sent it. Clients
// own disjoint regions and keep one request in flight each, so the offset
// names the client.
type backend struct {
	arr         *raid.Array
	regionBytes int64
	tr          atomic.Pointer[spanTracer]
}

func (b *backend) client(off int64, t *spanTracer) int {
	return int(min(off/b.regionBytes, int64(len(t.raidSpan)-1)))
}

func (b *backend) ReadAt(p []byte, off int64) (int, error) {
	t := b.tr.Load()
	if t == nil {
		return b.arr.ReadAt(p, off)
	}
	c := b.client(off, t)
	s := t.openRaid(c, t.opSpan[c].Load(), false)
	n, err := b.arr.ReadAt(p, off)
	t.closeRaid(c, s, n)
	return n, err
}

func (b *backend) WriteAt(p []byte, off int64) (int, error) {
	t := b.tr.Load()
	if t == nil {
		return b.arr.WriteAt(p, off)
	}
	c := b.client(off, t)
	s := t.openRaid(c, t.opSpan[c].Load(), true)
	n, err := b.arr.WriteAt(p, off)
	t.closeRaid(c, s, n)
	return n, err
}

func (b *backend) Size() int64 { return b.arr.Size() }
