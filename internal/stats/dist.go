// Package stats provides the small statistical toolkit Scrub's sampling
// machinery needs: Student-t quantiles for the multistage-sampling error
// bounds (paper Eq. 2), plus a percentile helper the case studies use.
//
// Everything is implemented from first principles on the stdlib: the t
// CDF goes through the regularized incomplete beta function (continued
// fraction, modified Lentz), and quantiles invert the CDF by bisection.
package stats

import (
	"fmt"
	"math"
)

// logBeta returns log(B(a, b)).
func logBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// betacf evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method (Numerical Recipes §6.4).
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h
		}
	}
	return h // converged enough for our quantile bisection purposes
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	bt := math.Exp(a*math.Log(x) + b*math.Log(1-x) - logBeta(a, b))
	if x < (a+1)/(a+b+2) {
		return bt * betacf(a, b, x) / a
	}
	return 1 - bt*betacf(b, a, 1-x)/b
}

// TCDF returns P(T <= t) for a Student-t variable with df degrees of
// freedom.
func TCDF(t float64, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TQuantile returns the p-quantile of the Student-t distribution with df
// degrees of freedom (the t_{df,p} in the paper's Eq. 2). p must lie in
// (0, 1).
func TQuantile(p float64, df float64) (float64, error) {
	if df <= 0 {
		return 0, fmt.Errorf("stats: t quantile requires df > 0, got %g", df)
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("stats: t quantile requires p in (0,1), got %g", p)
	}
	if p == 0.5 {
		return 0, nil
	}
	// Symmetric: solve for the upper half and mirror.
	if p < 0.5 {
		q, err := TQuantile(1-p, df)
		return -q, err
	}
	// Bracket the root: expand hi until CDF(hi) > p.
	lo, hi := 0.0, 1.0
	for TCDF(hi, df) < p {
		hi *= 2
		if hi > 1e9 {
			return 0, fmt.Errorf("stats: t quantile p=%g df=%g out of range", p, df)
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2, nil
}
