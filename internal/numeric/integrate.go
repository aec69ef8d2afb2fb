package numeric

import "math"

// AdaptiveSimpson integrates f over [a, b] to within tol using adaptive
// Simpson quadrature. The interval is first split into a fixed number of
// panels so that narrow peaks far from the endpoints are not missed by the
// initial coarse estimate (a standard failure mode of the pure recursive
// scheme on kernels like ρe^{-ερ} over long tails).
func AdaptiveSimpson(f func(float64) float64, a, b, tol float64) float64 {
	if a == b {
		return 0
	}
	if a > b {
		return -AdaptiveSimpson(f, b, a, tol)
	}
	const panels = 16
	h := (b - a) / panels
	var total float64
	ptol := tol / panels
	for i := 0; i < panels; i++ {
		pa := a + float64(i)*h
		pb := pa + h
		if i == panels-1 {
			pb = b
		}
		c := (pa + pb) / 2
		fa, fb, fc := f(pa), f(pb), f(c)
		s := simpson(pa, pb, fa, fc, fb)
		total += adaptAux(f, pa, pb, fa, fb, fc, s, ptol, 30)
	}
	return total
}

func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptAux(f func(float64) float64, a, b, fa, fb, fc, whole, tol float64, depth int) float64 {
	c := (a + b) / 2
	d, e := (a+c)/2, (c+b)/2
	fd, fe := f(d), f(e)
	left := simpson(a, c, fa, fd, fc)
	right := simpson(c, b, fc, fe, fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptAux(f, a, c, fa, fc, fd, left, tol/2, depth-1) +
		adaptAux(f, c, b, fc, fb, fe, right, tol/2, depth-1)
}
