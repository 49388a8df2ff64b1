package main

import "slices"

// summary is the run-level value of one metric over its samples (one per
// round, or one per set-up). For a timing, Value is the quiet value: the
// fastest sample. The box the benchmark runs on is slowed from outside, by up
// to half, in spells of a second to many minutes (README.md has the
// measurements). A disturbance only ever adds time, so the fast end of a
// run's samples says what the program takes and the rest says what the
// neighbours did: between runs of one commit in a bad spell the median over
// rounds moved by 11%, the tenth percentile by 9%, the fastest by 5%. The
// median, quartiles and sample count say what the run as a whole looked like
// and how far to trust it.
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quartiles returns the first quartile, median and third quartile of xs by
// the rule Python's statistics.quantiles(xs, n=4) uses (exclusive method),
// so spreads computed here and by the driver agree.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summarize reports the quiet value of xs: the smallest when lower is
// better, the largest when higher is.
func summarize(xs []float64, unit, better string) summary {
	q1, med, q3 := quartiles(xs)
	quiet := slices.Min(xs)
	if better == higher {
		quiet = slices.Max(xs)
	}
	return summary{Value: quiet, Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}
