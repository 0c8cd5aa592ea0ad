package arima

import (
	"math"
	"testing"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	x, fv := nelderMead(f, []float64{0, 0}, 800)
	if math.Abs(x[0]-3) > 1e-4 || math.Abs(x[1]+1) > 1e-4 {
		t.Fatalf("minimum at %v, want [3 -1]", x)
	}
	if fv > 1e-7 {
		t.Fatalf("f at minimum = %g", fv)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, _ := nelderMead(f, []float64{-1.2, 1}, 5000)
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]-1) > 1e-3 {
		t.Fatalf("Rosenbrock minimum at %v, want [1 1]", x)
	}
}

func TestNelderMeadOneDimensional(t *testing.T) {
	f := func(x []float64) float64 { return math.Abs(x[0] - 2.5) }
	x, _ := nelderMead(f, []float64{0}, 400)
	if math.Abs(x[0]-2.5) > 1e-4 {
		t.Fatalf("1-D minimum at %v, want 2.5", x)
	}
}

func TestNelderMeadEmptyInput(t *testing.T) {
	called := false
	_, fv := nelderMead(func(x []float64) float64 { called = true; return 7 }, nil, 0)
	if !called || fv != 7 {
		t.Fatal("empty input should evaluate f once and return it")
	}
}

func TestNelderMeadZeroStartingPoint(t *testing.T) {
	// The simplex construction must handle zero coordinates (special-cased
	// to an absolute step).
	f := func(x []float64) float64 { return x[0]*x[0] + (x[1]-1)*(x[1]-1) }
	x, _ := nelderMead(f, []float64{0, 0}, 800)
	if math.Abs(x[0]) > 1e-4 || math.Abs(x[1]-1) > 1e-4 {
		t.Fatalf("minimum at %v, want [0 1]", x)
	}
}

func TestNelderMeadRespectsMaxIter(t *testing.T) {
	count := 0
	f := func(x []float64) float64 {
		count++
		return x[0] * x[0]
	}
	nelderMead(f, []float64{100}, 5)
	// Initial simplex: 2 evals; each iteration at most ~4 evals (shrink).
	if count > 2+5*5 {
		t.Fatalf("too many evaluations: %d", count)
	}
}
