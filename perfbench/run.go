package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"dcode/internal/raid"
	"dcode/internal/recovery"
	"dcode/internal/workload"
)

// setupReps is how many times each run sets the array up; setup_s is the
// median. A run measures its last spec.parts set-ups (a traced run its
// last).
const setupReps = 5

// spanCapacity bounds the spans one traced window keeps in memory.
const spanCapacity = 4 << 20

// metric is one named figure as the final JSON line reports it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run of one workload produced.
type outcome struct {
	metrics   map[string]metric
	order     []string // metric names in report order
	notes     []string // human-readable lines (sample counts, error_frac)
	attempted int64
	failed    int64
	checkErr  error // a failed output check; the run is not correct
}

func (o *outcome) set(name string, v float64, unit string) {
	if _, dup := o.metrics[name]; !dup {
		o.order = append(o.order, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(err error) {
	o.failed++
	o.checkErr = errors.Join(o.checkErr, err)
}

// count folds a phase's op tallies into the run's attempted/failed counts.
func (o *outcome) count(ph *phase) {
	for _, c := range ph.clients {
		o.attempted += c.attempted
		o.failed += c.failed
	}
	o.attempted += ph.rebuildAttempted
	o.failed += ph.rebuildFailed
}

// runWorkload sets the workload up setupReps times, runs it for seconds in
// all, checks every output and derives the end-to-end metrics (traced
// false) or the per-layer metrics (traced true). An untraced run spreads
// its window over the last spec.parts set-ups, because one array's figures
// differ from the next one's by several percent however long it runs; a
// traced run measures the last set-up alone.
func runWorkload(sp *spec, seed int64, seconds float64, traced bool, dataDir, spansPath string) (*outcome, error) {
	o := &outcome{metrics: map[string]metric{}}
	parts := sp.parts
	if traced {
		parts = 1
	}
	var setupS []float64
	var measured []*part
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		e, err := setup(sp, filepath.Join(dataDir, fmt.Sprintf("setup%d", i)), seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		k := i - (setupReps - parts) // the part measured on this set-up, if any
		var p *part
		switch {
		case k < 0:
		case traced:
			err = e.runTraced(o, seconds, filepath.Join(dataDir, "wrapcheck"), spansPath)
		default:
			p, err = e.runPart(o, seconds/float64(parts), k, parts)
		}
		if err = errors.Join(err, e.close()); err != nil {
			return nil, err
		}
		if k >= 0 && !traced {
			if p == nil {
				return o, nil // the window failed; o says why
			}
			measured = append(measured, p)
		}
	}
	if !traced {
		endToEnd(o, sp, setupS, measured)
	}
	if o.attempted > 0 {
		o.note("error_frac %.6f (%d failed of %d attempted)", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	}
	return o, nil
}

// part is what one measured set-up gives an untraced run: the window's
// slices, the slices its write latencies come from (degraded-read's write
// phase, else the window's) and the rebuild rates in MB/s.
type part struct {
	slices, writeSlices []*sliceStats
	rebuildMBs          []float64
}

// runPart measures part k of parts of an untraced run on this set-up: the
// window of seconds, the post phases and the output checks. A nil part
// with a nil error means the window failed; o records why.
func (e *env) runPart(o *outcome, seconds float64, k, parts int) (*part, error) {
	ops, failedCol, err := e.prepare(k)
	if err != nil {
		return nil, err
	}
	main, err := e.runPhase(ops, seconds, e.spec.warmup, 0, nil, failedCol)
	if main != nil {
		o.count(main)
	}
	if err != nil {
		o.fail(err)
		return nil, nil
	}
	writes, rebuilds, err := e.finish(o, failedCol, degradedWriteSeconds/float64(parts), postRebuilds*e.code.Cols()/parts)
	if err != nil {
		return nil, err
	}
	if e.spec.rebuild {
		rebuilds = main.rebuilds
	}
	p := &part{slices: sliceFigures(main)}
	p.writeSlices = p.slices
	if writes != nil {
		p.writeSlices = sliceFigures(writes)
	}
	for _, s := range rebuilds {
		p.rebuildMBs = append(p.rebuildMBs, float64(e.columnBytes())/1e6/s.dur.Seconds())
	}
	return p, nil
}

// runTraced is the traced run on this set-up. The first half of seconds
// runs untraced and gives the counter-based per-layer metrics; the second
// runs traced and gives the span-based ones. Their throughput ratio is the
// tracing overhead. The wrapper check then runs under wrapDir.
func (e *env) runTraced(o *outcome, seconds float64, wrapDir, spansPath string) error {
	ops, failedCol, err := e.prepare(0)
	if err != nil {
		return err
	}
	var main *phase
	var tr *spanTracer
	var lo, hi int64
	before := e.layerSnapshot()
	untraced, err := e.runPhase(ops, seconds/2, e.spec.warmup, 0, nil, failedCol)
	after := e.layerSnapshot()
	if untraced != nil {
		o.count(untraced)
	}
	if err == nil {
		tr, err = e.newSpanTracer(spanCapacity)
	}
	if err == nil {
		defer tr.rec.release()
		lo = tr.rec.now()
		main, err = e.runPhase(ops, seconds/2, 0, 0, tr, failedCol+3)
		hi = tr.rec.now()
	}
	if main != nil {
		o.count(main)
	}
	if err != nil {
		o.fail(err)
		return nil
	}
	_, rebuilds, err := e.finish(o, failedCol, degradedWriteSeconds, postRebuilds*e.code.Cols())
	if err != nil {
		return err
	}
	if e.spec.rebuild {
		rebuilds = untraced.rebuilds
	}
	spans, dropped := tr.rec.snapshot()
	st := analyze(spans, dropped, lo, hi, e.spec.delay > 0)
	e.perLayer(o, untraced, main, rebuilds, before, after, st)
	if err := writeSpans(spansPath, spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	o.attempted++
	if err := wrapperPass(wrapDir, e.seed); err != nil {
		o.fail(fmt.Errorf("wrapper check: %w", err))
	}
	return nil
}

// prepare readies a set-up for part k: it draws the op lists, syncs the
// fill to disk so the kernel's writeback does not compete with the window,
// and on a degraded workload fails a column, rotating it with k. It returns
// the ops and the failed column (the first to rebuild otherwise).
func (e *env) prepare(k int) ([][]workload.Op, int, error) {
	ops, err := e.genOps(e.spec.profile, e.seed)
	if err != nil {
		return nil, 0, err
	}
	if err := e.sync(); err != nil {
		return nil, 0, err
	}
	failedCol := int((e.seed + int64(k)) % int64(e.code.Cols()))
	if e.spec.degraded {
		if err := e.arr.FailDisk(failedCol); err != nil {
			return nil, 0, err
		}
	}
	return ops, failedCol, nil
}

// finish runs the phases after the window and the output checks. On
// degraded-read the clients first write for writeSeconds while the column
// is still failed. net-mixed and degraded-read then fail and rebuild
// rebuilds columns in turn from failedCol (disk-rebuild rebuilt inside its
// window). Last, the wrapper counts must match the array's tallies, the
// whole volume must read back as written, and Scrub must repair nothing.
// It returns the write phase, if any, and the rebuilds.
func (e *env) finish(o *outcome, failedCol int, writeSeconds float64, rebuilds int) (*phase, []rebuildSample, error) {
	if err := e.stopServer(); err != nil {
		o.fail(err)
	}
	var writes *phase
	if e.spec.degraded {
		wops, err := e.genOps(workload.Profile{Name: "Write-Only", ReadFraction: 0}, e.seed+1)
		if err != nil {
			return nil, nil, err
		}
		writes, err = e.runPhase(wops, writeSeconds, e.spec.warmup, 0, nil, 0)
		if writes != nil {
			o.count(writes)
		}
		if err != nil {
			o.fail(err)
		}
	}
	var samples []rebuildSample
	if !e.spec.rebuild {
		if err := e.sync(); err != nil {
			o.fail(err)
		}
		for i := 0; i < rebuilds; i++ {
			col := (failedCol + i) % e.code.Cols()
			o.attempted++
			s, err := e.rebuildOnce(col, !(e.spec.degraded && i == 0), nil)
			if err != nil {
				o.fail(err)
				continue
			}
			samples = append(samples, s)
		}
	}

	o.attempted += 3
	if err := e.checkTallies(); err != nil {
		o.fail(err)
	}
	if err := e.readBack(); err != nil {
		o.fail(err)
	}
	if fixed, err := e.arr.Scrub(); err != nil || fixed != 0 {
		o.fail(fmt.Errorf("scrub: %d stripes repaired, err %v", fixed, err))
	}
	return writes, samples, nil
}

// postRebuilds is how many times net-mixed and degraded-read rebuild each
// column after their windows, over all parts; rebuild_mb_s is the median
// of those rebuilds.
const postRebuilds = 20

// degradedWriteSeconds is the length of degraded-read's write phase over
// all parts, cut into slices as its window is.
const degradedWriteSeconds = 3

// sliceFigures merges the clients' tallies per slice of a phase's window.
func sliceFigures(ph *phase) []*sliceStats {
	out := make([]*sliceStats, ph.window.slices)
	secs := ph.window.deadline.Sub(ph.window.start).Seconds() / float64(ph.window.slices)
	for i := range out {
		out[i] = &sliceStats{secs: secs}
		for _, c := range ph.clients {
			out[i].read.merge(&c.slices[i].read)
			out[i].write.merge(&c.slices[i].write)
			out[i].bytes += c.slices[i].bytes
		}
	}
	return out
}

// medianOver is the median over slices of f.
func medianOver(sl []*sliceStats, f func(*sliceStats) float64) float64 {
	v := make([]float64, len(sl))
	for i, s := range sl {
		v[i] = f(s)
	}
	return median(v)
}

// endToEnd derives the user-visible metrics of an untraced run from its
// parts. Throughput and latency are medians over the slices of every part,
// rebuild_mb_s the median over every part's rebuilds.
func endToEnd(o *outcome, sp *spec, setupS []float64, parts []*part) {
	var sl, wsl []*sliceStats
	var rates []float64
	for _, p := range parts {
		sl = append(sl, p.slices...)
		wsl = append(wsl, p.writeSlices...)
		rates = append(rates, p.rebuildMBs...)
	}
	writeSrc := "window"
	if sp.degraded {
		writeSrc = "degraded write phase"
	}
	tail := sp.tail
	o.set("setup_s", median(setupS), "s")
	o.set("throughput_mb_s", medianOver(sl, func(s *sliceStats) float64 { return float64(s.bytes) / 1e6 / s.secs }), "MB/s")
	o.set("read_p50_ms", medianOver(sl, func(s *sliceStats) float64 { return s.read.quantileMs(0.5) }), "ms")
	o.set("read_tail_ms", medianOver(sl, func(s *sliceStats) float64 { return s.read.quantileMs(tail) }), "ms")
	o.set("write_p50_ms", medianOver(wsl, func(s *sliceStats) float64 { return s.write.quantileMs(0.5) }), "ms")
	o.set("write_tail_ms", medianOver(wsl, func(s *sliceStats) float64 { return s.write.quantileMs(tail) }), "ms")
	o.set("rebuild_mb_s", median(rates), "MB/s")
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	reads, ws := medianOver(sl, func(s *sliceStats) float64 { return float64(s.read.n) }),
		medianOver(wsl, func(s *sliceStats) float64 { return float64(s.write.n) })
	o.note("samples per slice (median): %.0f reads, %.0f writes (%s); %d slices over %d set-ups, %d rebuilds, %d set-ups timed",
		reads, ws, writeSrc, len(sl), len(parts), len(rates), len(setupS))
	for _, n := range []struct {
		what string
		k    float64
	}{{"read", reads}, {"write", ws}} {
		beyond := int(n.k * (1 - tail))
		o.note("%s tail is p%g: %d samples beyond it per slice", n.what, 100*tail, beyond)
		if beyond < 10 {
			o.note("warning: fewer than 10 %s samples beyond the tail percentile", n.what)
		}
	}
	o.note("not gated: read p99 %.4g ms, write p99 %.4g ms",
		medianOver(sl, func(s *sliceStats) float64 { return s.read.quantileMs(0.99) }),
		medianOver(wsl, func(s *sliceStats) float64 { return s.write.quantileMs(0.99) }))
}

// layerSnap is the cumulative state the per-layer metrics difference.
type layerSnap struct {
	arr        raid.Snapshot
	probes     probeTotals
	mallocs    uint64
	gcCPU      float64
	totalCPU   float64
	queueCount int64
	queueNs    int64
}

func (e *env) layerSnapshot() layerSnap {
	s := layerSnap{arr: e.arr.Snapshot(), probes: totals(e.probes)}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	if e.srv != nil {
		if q := e.srv.Snapshot().QueueWait; q != nil {
			s.queueCount, s.queueNs = q.Count, q.SumNanos
		}
	}
	return s
}

// perLayer derives the per-layer metrics of a traced run. Counter-based
// metrics come from the untraced half, so they describe the untraced path;
// span-based ones from the traced half. On disk-rebuild the device and XOR
// work of the rebuild cycles is taken out of the per-op ratios.
func (e *env) perLayer(o *outcome, untraced, traced *phase, rebuilds []rebuildSample, before, after layerSnap, st spanStats) {
	var ops, readBytes, writeBytes, winUntraced, winTraced int64
	for _, c := range untraced.clients {
		ops += c.attempted - c.failed
		readBytes += c.okReadBytes
		writeBytes += c.okWriteBytes
	}
	for _, s := range sliceFigures(untraced) {
		winUntraced += s.bytes
	}
	for _, s := range sliceFigures(traced) {
		winTraced += s.bytes
	}
	d := after.probes.sub(before.probes)
	xorEnc := after.arr.XOR.EncodeOps - before.arr.XOR.EncodeOps
	xorDec := after.arr.XOR.DecodeOps - before.arr.XOR.DecodeOps
	for _, s := range untraced.rebuilds {
		d = d.sub(s.dev)
		xorEnc -= s.xorEnc
		xorDec -= s.xorDec
	}
	userBytes := readBytes + writeBytes
	wall := st.wallNs

	o.set("blockserve.client_us", ratio(st.durNs[kindClient], st.count[kindClient])/1e3, "us")
	o.set("blockserve.overhead_us", ratio(st.selfNs[kindClient], st.count[kindClient])/1e3, "us")
	o.set("blockserve.queue_wait_us", ratio(after.queueNs-before.queueNs, after.queueCount-before.queueCount)/1e3, "us")
	o.set("blockserve.retries", float64(untraced.retries+traced.retries), "count")

	o.set("raid.read_us", ratio(st.readNs, st.reads)/1e3, "us")
	o.set("raid.write_us", ratio(st.writeNs, st.writes)/1e3, "us")
	o.set("raid.self_us", ratio(st.selfNs[kindRaid], st.count[kindRaid])/1e3, "us")
	o.set("raid.busy_frac", ratio(st.busyNs[kindRaid], wall), "frac")
	var rebuildNs, readElems int64
	for _, s := range rebuilds {
		rebuildNs += int64(s.dur)
		readElems += s.dev.bytes[0] / elemSize
	}
	o.set("raid.rebuild_s", ratio(rebuildNs, int64(len(rebuilds)))/1e9, "s")
	restored := int64(len(rebuilds)) * e.spec.stripes * int64(e.code.Rows())
	o.set("raid.reads_per_rebuilt_elem", ratio(readElems, restored), "ratio")
	o.set("raid.rebuild_self_frac", ratio(st.selfNs[kindRebuild], st.durNs[kindRebuild]), "frac")

	o.set("blockdev.calls_per_op", ratio(d.calls[0]+d.calls[1], ops), "ratio")
	o.set("blockdev.read_bytes_per_user_byte", ratio(d.bytes[0], userBytes), "ratio")
	o.set("blockdev.write_bytes_per_user_byte", ratio(d.bytes[1], userBytes), "ratio")
	o.set("blockdev.call_us", ratio(st.durNs[kindDevice], st.count[kindDevice])/1e3, "us")
	o.set("blockdev.busy_frac", ratio(st.busyNs[kindDevice], wall), "frac")
	o.set("blockdev.load_lf", loadFactor(d.perColCalls), "ratio")
	o.set("blockdev.busy_max_frac", ratio(st.colBusyMax, wall), "frac")
	o.set("blockdev.slot_wait_us", ratio(st.slotWaitNs, st.count[kindDevice])/1e3, "us")

	lad, err := runLadder(e.seed)
	if err != nil {
		o.fail(err)
	}
	o.set("erasure.encode_us", lad.encode.median, "us")
	o.set("erasure.encode_us_spread", lad.encode.spread, "frac")
	o.set("erasure.encode_xor_per_write_elem", ratio(xorEnc*elemSize, writeBytes), "ratio")
	o.set("erasure.reconstruct_us", lad.reconstruct.median, "us")
	o.set("erasure.reconstruct_us_spread", lad.reconstruct.spread, "frac")
	o.set("erasure.decode_xor_per_read_elem", ratio(xorDec*elemSize, readBytes), "ratio")
	o.set("stripe.xor8_gb_s", lad.xor8.median, "GB/s")
	o.set("stripe.xor8_gb_s_spread", lad.xor8.spread, "frac")
	o.set("recovery.optimize_us", lad.optimize.median, "us")
	o.set("recovery.optimize_us_spread", lad.optimize.spread, "frac")
	planReads, err := e.planReadsPerElem()
	if err != nil {
		o.fail(err)
	}
	o.set("recovery.plan_reads_per_elem", planReads, "ratio")

	o.set("proc.allocs_per_op", ratio(int64(after.mallocs-before.mallocs), ops), "count")
	gcFrac := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		gcFrac = (after.gcCPU - before.gcCPU) / cpu
	}
	o.set("proc.gc_cpu_frac", gcFrac, "frac")
	o.set("trace.overhead_frac", 1-ratio(winTraced, winUntraced), "frac")
	o.set("trace.dropped_spans", float64(st.dropped), "count")
	o.note("untraced half: %d ops; traced half: %d spans (%d dropped)", ops, st.spans, st.dropped)
}

// planReadsPerElem is recovery.Optimize's reads per restored element,
// averaged over every column.
func (e *env) planReadsPerElem() (float64, error) {
	var sum float64
	for col := 0; col < e.code.Cols(); col++ {
		pl, err := recovery.Optimize(e.code, col)
		if err != nil {
			return 0, err
		}
		sum += float64(pl.Reads) / float64(e.code.Rows())
	}
	return sum / float64(e.code.Cols()), nil
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work in the phase
// measured).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// loadFactor is the paper's LF: the busiest column's calls over the mean.
func loadFactor(perCol []int64) float64 {
	var sum, top int64
	for _, c := range perCol {
		sum += c
		top = max(top, c)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(perCol)) / float64(sum)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
