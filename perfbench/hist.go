package main

import "math/bits"

// histogram counts latencies in log-linear buckets: each power of two of
// nanoseconds is split into histSub buckets, so a quantile read back is
// within 1/histSub (0.8%) of the sample it stands for. Its memory is fixed,
// so recording millions of samples does not grow the process.
type histogram struct {
	counts [histBits * histSub]int64
	n      int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBits    = 40 // covers up to 2^40 ns, about 18 minutes
)

func bucketOf(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	exp := bits.Len64(uint64(ns)) - 1 // ns in [2^exp, 2^(exp+1))
	sub := int(ns>>(exp-histSubBits)) - histSub
	return min((exp-histSubBits+1)*histSub+sub, histBits*histSub-1)
}

// bucketMid is the midpoint of bucket b in nanoseconds.
func bucketMid(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	exp := b/histSub + histSubBits - 1
	sub := b % histSub
	width := int64(1) << (exp - histSubBits)
	lo := int64(1)<<exp + int64(sub)*width
	return float64(lo) + float64(width)/2
}

func (h *histogram) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMs is the nearest-rank q-quantile in milliseconds, 0 when empty.
func (h *histogram) quantileMs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(q*float64(h.n)+0.9999999), 1)
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(b) / 1e6
		}
	}
	return 0
}
