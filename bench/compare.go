package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (workload, metric) pair in compare mode.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// alpha is the significance level of the Mann–Whitney test.
const alpha = 0.05

// judge compares a lower-is-better metric's new samples against the old.
// delta is the relative change of the median (the absolute change when
// bound is 0, which means any increase regresses). p is the Mann–Whitney
// p-value, NaN when either side has fewer than three samples; the verdict
// then rests on the medians alone.
//
//   - unresolved: either side's quartile spread is wider than the bound,
//     unless every new sample beats every old one by more than the bound
//     (improved) or loses to every old one by more than the bound
//     (regressed); or the median moved past the bound without significance.
//   - regressed / improved: the median moved past the bound, significantly.
//   - unchanged: otherwise.
func judge(old, new []float64, bound float64) (delta, p float64, verdict string) {
	mo, mn := median(old), median(new)
	p = math.NaN()
	if len(old) >= 3 && len(new) >= 3 {
		p = mannWhitneyP(old, new)
	}
	if bound == 0 {
		delta = mn - mo
		switch {
		case mn > mo:
			return delta, p, regressed
		case mn < mo:
			return delta, p, improved
		}
		return delta, p, unchanged
	}
	delta = ratio(mn-mo, mo)
	decided := math.IsNaN(p) || p < alpha
	switch {
	case math.Max(relSpread(old), relSpread(new)) > bound:
		if maxOf(new) < minOf(old) && delta < -bound {
			return delta, p, improved
		}
		if minOf(new) > maxOf(old) && delta > bound {
			return delta, p, regressed
		}
		return delta, p, unresolved
	case delta > bound && decided:
		return delta, p, regressed
	case delta < -bound && decided:
		return delta, p, improved
	case math.Abs(delta) > bound:
		return delta, p, unresolved
	}
	return delta, p, unchanged
}

// relSpread is the quartile spread as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

func minOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// compareSets prints one line per (workload, end-to-end metric) present in
// both sets and returns how many regressed.
func compareSets(w io.Writer, old, new setFile) int {
	byName := map[string]record{}
	for _, r := range new.Records {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-16s %-12s %-34s %-34s %9s %7s %6s  %s\n",
		"workload", "metric", "old median [q1 q3] n", "new median [q1 q3] n", "delta", "p", "bound", "verdict")
	regressions := 0
	for _, o := range old.Records {
		n, ok := byName[o.Workload]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from the new set\n", o.Workload)
			continue
		}
		if o.Seed != n.Seed {
			fmt.Fprintf(w, "%-16s note: seeds differ (%d vs %d)\n", o.Workload, o.Seed, n.Seed)
		}
		for _, m := range endToEnd {
			before, okOld := o.EndToEnd[m.name]
			after, okNew := n.EndToEnd[m.name]
			if !okOld || !okNew {
				continue
			}
			bound := m.bound
			delta, p, v := judge(before.Samples, after.Samples, bound)
			if v == regressed {
				regressions++
			}
			deltaText := fmt.Sprintf("%+.1f%%", delta*100)
			boundText := fmt.Sprintf("%.0f%%", bound*100)
			if bound == 0 {
				deltaText, boundText = fmt.Sprintf("%+.3g", delta), "any"
			}
			pText := "-"
			if !math.IsNaN(p) {
				pText = fmt.Sprintf("%.3f", p)
			}
			fmt.Fprintf(w, "%-16s %-12s %-34s %-34s %9s %7s %6s  %s\n",
				o.Workload, m.name, describe(before), describe(after), deltaText, pText, boundText, v)
		}
	}
	return regressions
}

func describe(s summary) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %d %s", s.Median, s.Q1, s.Q3, s.N, s.Unit)
}
