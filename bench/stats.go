package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// quartiles returns the first and third quartiles by the exclusive method
// of Python's statistics.quantiles(xs, n=4), the method the benchmark's
// spread rule is stated in. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		ld := len(s)
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// mannWhitneyP is the two-sided p-value of the Mann–Whitney U test of x
// against y. Without ties and with n1·n2 ≤ 400 it is exact (the U
// distribution by counting arrangements); otherwise it is the normal
// approximation with tie and continuity corrections. Empty input gives 1.
func mannWhitneyP(x, y []float64) float64 {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return 1
	}
	type obs struct {
		v     float64
		fromX bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range x {
		all = append(all, obs{v, true})
	}
	for _, v := range y {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].v < all[b].v })
	var rankX, tieTerm float64
	ties := false
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // mean of ranks i+1..j
		for k := i; k < j; k++ {
			if all[k].fromX {
				rankX += rank
			}
		}
		if t := float64(j - i); t > 1 {
			ties = true
			tieTerm += t*t*t - t
		}
		i = j
	}
	u := rankX - float64(n1*(n1+1))/2
	if !ties && n1*n2 <= 400 {
		return exactUP(n1, n2, int(math.Round(u)))
	}
	n := float64(n1 + n2)
	mu := float64(n1*n2) / 2
	sigma2 := float64(n1*n2) / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		return 1
	}
	z := (math.Abs(u-mu) - 0.5) / math.Sqrt(sigma2)
	if z < 0 {
		z = 0
	}
	return math.Min(1, math.Erfc(z/math.Sqrt2))
}

// exactUP is the exact two-sided p-value of U = u for sample sizes n1, n2:
// twice the smaller tail of the count of arrangements, over C(n1+n2, n1).
func exactUP(n1, n2, u int) float64 {
	// c[i][j][k]: arrangements of i x's and j y's with U = k, built with the
	// recurrence c(i,j,k) = c(i-1,j,k-j) + c(i,j-1,k).
	maxU := n1 * n2
	c := make([][][]float64, n1+1)
	for i := range c {
		c[i] = make([][]float64, n2+1)
		for j := range c[i] {
			c[i][j] = make([]float64, maxU+1)
			if i == 0 || j == 0 {
				c[i][j][0] = 1
				continue
			}
			for k := 0; k <= i*j; k++ {
				if k >= j {
					c[i][j][k] += c[i-1][j][k-j]
				}
				c[i][j][k] += c[i][j-1][k]
			}
		}
	}
	var total, lo, hi float64
	for k, w := range c[n1][n2] {
		total += w
		if k <= u {
			lo += w
		}
		if k >= u {
			hi += w
		}
	}
	return math.Min(1, 2*math.Min(lo, hi)/total)
}
