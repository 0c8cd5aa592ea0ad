package arima

import "math"

// The simplex search stops when the simplex's function spread falls
// below simplexTolF or its size below simplexTolX; simplexStep is the
// initial simplex's step per coordinate.
const (
	simplexTolF = 1e-10
	simplexTolX = 1e-8
	simplexStep = 0.1
)

// nelderMead minimizes f starting from x0 using the Nelder–Mead simplex
// algorithm with standard coefficients (reflection 1, expansion 2,
// contraction 0.5, shrink 0.5), for at most maxIter iterations. It
// returns the best point found and its function value. Fit refines the
// CSS parameter vector with it.
func nelderMead(f func([]float64) float64, x0 []float64, maxIter int) ([]float64, float64) {
	n := len(x0)
	if n == 0 {
		return nil, f(nil)
	}

	// Build the initial simplex: x0 plus one perturbed vertex per axis.
	verts := make([][]float64, n+1)
	vals := make([]float64, n+1)
	verts[0] = append([]float64(nil), x0...)
	vals[0] = f(verts[0])
	for i := 0; i < n; i++ {
		v := append([]float64(nil), x0...)
		if v[i] != 0 {
			v[i] *= 1 + simplexStep
		} else {
			v[i] = simplexStep
		}
		verts[i+1] = v
		vals[i+1] = f(v)
	}

	order := func() {
		// Insertion sort keeps the simplex ordered by value (n is small).
		for i := 1; i <= n; i++ {
			v, fv := verts[i], vals[i]
			j := i - 1
			for j >= 0 && vals[j] > fv {
				verts[j+1], vals[j+1] = verts[j], vals[j]
				j--
			}
			verts[j+1], vals[j+1] = v, fv
		}
	}

	centroid := make([]float64, n)
	point := func(coef float64) []float64 {
		// x = centroid + coef·(centroid − worst)
		p := make([]float64, n)
		worst := verts[n]
		for i := 0; i < n; i++ {
			p[i] = centroid[i] + coef*(centroid[i]-worst[i])
		}
		return p
	}

	for iter := 0; iter < maxIter; iter++ {
		order()
		// Convergence checks.
		if math.Abs(vals[n]-vals[0]) < simplexTolF {
			break
		}
		size := 0.0
		for i := 1; i <= n; i++ {
			for j := 0; j < n; j++ {
				size = math.Max(size, math.Abs(verts[i][j]-verts[0][j]))
			}
		}
		if size < simplexTolX {
			break
		}
		// Centroid of all but the worst vertex.
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += verts[i][j]
			}
			centroid[j] = s / float64(n)
		}
		// Reflection.
		xr := point(1)
		fr := f(xr)
		switch {
		case fr < vals[0]:
			// Expansion.
			xe := point(2)
			fe := f(xe)
			if fe < fr {
				verts[n], vals[n] = xe, fe
			} else {
				verts[n], vals[n] = xr, fr
			}
		case fr < vals[n-1]:
			verts[n], vals[n] = xr, fr
		default:
			// Contraction.
			xc := point(-0.5)
			fc := f(xc)
			if fc < vals[n] {
				verts[n], vals[n] = xc, fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						verts[i][j] = verts[0][j] + 0.5*(verts[i][j]-verts[0][j])
					}
					vals[i] = f(verts[i])
				}
			}
		}
	}
	order()
	return verts[0], vals[0]
}
