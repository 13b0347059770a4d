package main

import "sort"

// selfTimes sums, per microprotocol bucket, the self time of the spans
// that start in [from, to): a span's duration minus the part of it
// covered by other spans of the same computation nested inside it (its
// synchronous callees, transitively). gc issues asynchronous triggers as
// a handler's last step, so an asynchronously triggered handler almost
// never nests inside its trigger's span. The result has one extra bucket
// for microprotocols outside mpBuckets. It sorts spans in place.
func selfTimes(spans []span, from, to int64) []int64 {
	self := make([]int64, len(mpBuckets)+1)
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.comp != b.comp {
			return a.comp < b.comp
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.dur > b.dur // an enclosing span before what it encloses
	})
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].comp == spans[lo].comp {
			hi++
		}
		comp := spans[lo:hi]
		for i, s := range comp {
			if s.start < from || s.start >= to {
				continue
			}
			// Nested spans start after s (sorted), so scan forward
			// and merge the covered intervals.
			end := s.end()
			covered := int64(0)
			curLo, curHi := int64(-1), int64(-1)
			for _, c := range comp[i+1:] {
				if c.start >= end {
					break
				}
				if c.end() > end {
					continue // overlaps s without nesting: concurrent, not a callee
				}
				if c.start > curHi {
					covered += curHi - curLo
					curLo, curHi = c.start, c.end()
				} else if c.end() > curHi {
					curHi = c.end()
				}
			}
			covered += curHi - curLo
			self[s.mp] += int64(s.dur) - covered
		}
		lo = hi
	}
	return self
}
