package raid

import (
	"math"
	"testing"

	"dcode/internal/codes"
	"dcode/internal/ioload"
	"dcode/internal/workload"
)

// TestLiveLFMatchesSimulator is the acceptance check for the windowed load
// tracker: replaying one workload trace against a real array must produce a
// live load-balance factor within 5% of internal/ioload's analytic count for
// the same trace.
//
// The two accountings are element-for-element identical for writes of any
// length: the stripe-granular read-modify-write reads and writes each
// written data element once and each distinct parity it touches once (2w +
// 2P accesses per stripe — exactly the simulator's Eq. 8 bookkeeping). That
// holds only while every write takes the RMW path, which the test checks
// rather than assumes, and the element cache stays off so every logical
// access reaches a device. hdp is left out: the cost model picks
// reconstruct-write for 26 of its stripe writes in this trace, and that
// strategy reads untouched data and no parity, which Eq. 8 does not model.
func TestLiveLFMatchesSimulator(t *testing.T) {
	const (
		stripes = 4
		opCount = 250
	)
	for _, tc := range []struct {
		id string
		p  int
	}{
		{"dcode", 7},
		{"rdp", 7},
		{"xcode", 7},
		{"hcode", 7},
	} {
		t.Run(tc.id, func(t *testing.T) {
			code := codes.MustNew(tc.id, tc.p)
			total := stripes * code.DataElems()
			ops, err := workload.Generate(workload.Config{
				Ops:       opCount,
				MaxLen:    8,
				MaxTimes:  3,
				DataElems: total,
				Seed:      7,
			}, workload.ReadIntensive)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ops {
				if ops[i].S+ops[i].L > total { // Generate lets L spill past the end
					ops[i].L = total - ops[i].S
				}
			}

			sim := ioload.Simulate(code, ops)
			simLF := sim.LF()
			if math.IsInf(simLF, 0) {
				t.Fatalf("simulated workload idles a disk entirely (LF=+Inf); reshape the trace")
			}

			a, _ := newArrayConc(t, tc.id, tc.p, stripes, WithConcurrency(1))
			buf := make([]byte, 8*elemSize)
			for _, op := range ops {
				off := int64(op.S) * elemSize
				n := op.L * elemSize
				for r := 0; r < op.T; r++ {
					if op.Kind == workload.Read {
						_, err = a.ReadAt(buf[:n], off)
					} else {
						_, err = a.WriteAt(pattern(n, byte(op.S)), off)
					}
					if err != nil {
						t.Fatalf("%v S=%d L=%d: %v", op.Kind, op.S, op.L, err)
					}
				}
			}

			if n := a.Stats().FullStripeWrites; n != 0 {
				t.Fatalf("%d writes took reconstruct-write; the exact match needs RMW only", n)
			}

			live := a.LoadWindow().Snapshot()
			liveLF := live.Load.LF
			t.Logf("%s: live LF=%.4f simulated LF=%.4f (live per-disk %v, sim per-disk %v)",
				tc.id, liveLF, simLF, live.Load.PerDisk, sim.PerDisk)
			if liveLF <= 0 || math.IsInf(liveLF, 0) || math.IsNaN(liveLF) {
				t.Fatalf("degenerate live LF %v", liveLF)
			}
			if rel := math.Abs(liveLF-simLF) / simLF; rel > 0.05 {
				t.Errorf("live LF %.4f vs simulated %.4f: %.1f%% apart, want ≤5%%",
					liveLF, simLF, 100*rel)
			}
			// The cumulative per-disk tallies should agree exactly, not just
			// within tolerance — nothing ages out of a 60s window mid-test.
			for d, want := range sim.PerDisk {
				if got := live.Load.PerDisk[d]; got != want {
					t.Errorf("disk %d: live ops %d, simulated %d", d, got, want)
				}
			}
		})
	}
}
