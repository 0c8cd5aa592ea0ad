package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/tensor"
)

// gemmSpeedupTable times the GEMM — one 4×8 register-tile kernel that
// reads A in place, reads a small row-major B in place and packs any
// other B into column panels once per call — against the naive reference
// loops on the matmul shapes the model actually runs, so the per-layer
// profiler output stays honest about where time goes. Shapes: the
// im2col conv GEMM, an LSTM gate projection, the FC head, and two square
// sizes for scale.
func gemmSpeedupTable(seed uint64) string {
	r := tensor.NewRNG(seed)
	fill := func(t *tensor.Tensor) *tensor.Tensor {
		for i := range t.Data {
			t.Data[i] = r.NormFloat64()
		}
		return t
	}

	type row struct {
		op, shape     string
		naive, kernel func()
	}
	var rows []row
	add := func(op, shape string, naive, kernel func()) {
		rows = append(rows, row{op, shape, naive, kernel})
	}

	// Dilated conv as im2col: [in·k, b·t]ᵀ × [in·k, out].
	{
		a, b := fill(tensor.New(48, 1024)), fill(tensor.New(48, 16))
		dst := tensor.New(1024, 16)
		add("TMatMulAcc", "48x1024 · 48x16",
			func() { a.ReferenceTMatMulAcc(b, dst) },
			func() { a.TMatMulAcc(b, dst) })
	}
	// LSTM gate projection: [rows, F] × [4H, F]ᵀ.
	{
		a, b := fill(tensor.New(512, 16)), fill(tensor.New(256, 16))
		dst := tensor.New(512, 256)
		add("MatMulTInto", "512x16 · 256x16T",
			func() { a.ReferenceMatMulTInto(b, dst) },
			func() { a.MatMulTInto(b, dst) })
	}
	// FC head after flatten: [batch, C·W] × [width, C·W]ᵀ.
	{
		a, b := fill(tensor.New(32, 512)), fill(tensor.New(128, 512))
		dst := tensor.New(32, 128)
		add("MatMulTInto", "32x512 · 128x512T",
			func() { a.ReferenceMatMulTInto(b, dst) },
			func() { a.MatMulTInto(b, dst) })
	}
	// Square GEMMs for scale.
	for _, n := range []int{256, 512} {
		a, b := fill(tensor.New(n, n)), fill(tensor.New(n, n))
		dst := tensor.New(n, n)
		add("MatMulInto", fmt.Sprintf("%dx%d · %dx%d", n, n, n, n),
			func() { a.ReferenceMatMulInto(b, dst) },
			func() { a.MatMulInto(b, dst) })
	}

	var sb strings.Builder
	sb.WriteString("GEMM: 4x8 register-tile kernel vs naive loops (ns/op)\n")
	fmt.Fprintf(&sb, "%-12s %-20s %14s %14s %9s\n", "op", "shape", "naive", "kernel", "speedup")
	for _, rw := range rows {
		naive, kernel := timeOp(rw.naive), timeOp(rw.kernel)
		fmt.Fprintf(&sb, "%-12s %-20s %14.0f %14.0f %8.2fx\n",
			rw.op, rw.shape, naive, kernel, naive/kernel)
	}
	return sb.String()
}

// timeOp returns the mean ns per call over a short fixed wall-clock
// budget, after one warm-up call.
func timeOp(f func()) float64 {
	f()
	const budget = 30 * time.Millisecond
	n := 0
	start := time.Now()
	for time.Since(start) < budget {
		f()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
