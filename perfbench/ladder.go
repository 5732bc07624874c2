package main

import (
	"errors"
	"slices"
	"time"

	"dcode/internal/codes"
	"dcode/internal/recovery"
	"dcode/internal/stripe"
)

// rung is one ladder measurement: the median over batches of a per-call
// figure, and its spread (interquartile range over the median).
type rung struct{ median, spread float64 }

// ladder holds the standalone rungs at the workloads' geometry.
type ladder struct {
	xor8, encode, reconstruct, optimize rung
}

// Each rung runs ladderBatches batches, each long enough to last at least
// ladderBatchTime, and reports the median batch.
const (
	ladderBatches   = 21
	ladderBatchTime = 10 * time.Millisecond
)

// measure times fn in batches. It first doubles the batch size until one
// batch lasts ladderBatchTime, then returns perCall applied to each batch's
// mean call time, summarised as a rung.
func measure(fn func(i int), perCall func(d time.Duration) float64) rung {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		if time.Since(start) >= ladderBatchTime {
			break
		}
		n *= 2
	}
	vals := make([]float64, ladderBatches)
	for b := range vals {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		vals[b] = perCall(time.Since(start) / time.Duration(n))
	}
	slices.Sort(vals)
	q1, q2, q3 := vals[len(vals)/4], vals[len(vals)/2], vals[3*len(vals)/4]
	return rung{median: q2, spread: (q3 - q1) / q2}
}

// runLadder times stripe.XORMulti with 8 sources of one element,
// erasure.Code.Encode of one stripe, Code.Reconstruct of one failed column
// and recovery.Optimize, on a code instance of its own so the array's XOR
// tallies are untouched.
func runLadder(seed int64) (ladder, error) {
	var l ladder
	entry, err := codes.ByID(codeID)
	if err != nil {
		return l, err
	}
	code, err := entry.New(codeP)
	if err != nil {
		return l, err
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	dst := make([]byte, elemSize)
	srcs := make([][]byte, 8)
	for i := range srcs {
		srcs[i] = make([]byte, elemSize)
		pattern(srcs[i], int64(i)*elemSize, seed)
	}
	l.xor8 = measure(func(int) { stripe.XORMulti(dst, srcs...) },
		func(d time.Duration) float64 { return float64(len(srcs)*elemSize) / d.Seconds() / 1e9 })

	s := code.NewStripe(elemSize)
	s.Fill(uint64(seed))
	l.encode = measure(func(int) { code.Encode(s) }, us)

	var reconErr error
	l.reconstruct = measure(func(i int) {
		if err := code.Reconstruct(s, i%code.Cols()); err != nil {
			reconErr = err
		}
	}, us)
	if !code.Verify(s) {
		reconErr = errors.Join(reconErr, errors.New("ladder: stripe fails parity after Reconstruct"))
	}

	// plan is captured, so the optimizer's result stays live.
	var plan recovery.Plan
	var planErr error
	l.optimize = measure(func(i int) { plan, planErr = recovery.Optimize(code, i%code.Cols()) }, us)
	if plan.Reads == 0 {
		planErr = errors.Join(planErr, errors.New("ladder: empty recovery plan"))
	}
	return l, errors.Join(reconErr, planErr)
}
