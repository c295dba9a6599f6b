package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD builds a random symmetric positive definite matrix A = BᵀB + n·I.
func randSPD(n int, r *rand.Rand) *SymMatrix {
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = r.NormFloat64()
		}
	}
	a := NewSymMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b[k][i] * b[k][j]
			}
			if i == j {
				s += float64(n)
			}
			a.Set(i, j, s)
		}
	}
	return a
}

func randVector(n int, r *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestSymMatrixAccess(t *testing.T) {
	m := NewSymMatrix(4)
	m.Set(2, 1, 7)
	if m.At(1, 2) != 7 || m.At(2, 1) != 7 {
		t.Error("symmetric access broken")
	}
	m.Add(1, 2, 3)
	if m.At(2, 1) != 10 {
		t.Error("Add via upper index broken")
	}
	m.Set(3, 3, -2)
	d := m.Diag()
	if d[3] != -2 || d[0] != 0 {
		t.Errorf("Diag = %v", d)
	}
	if m.Order() != 4 {
		t.Error("Order wrong")
	}
	if got := m.MaxAbs(); got != 10 {
		t.Errorf("MaxAbs = %v", got)
	}
}

func TestSymMatrixMulVec(t *testing.T) {
	// A = [2 1; 1 3], x = [1, 2] → Ax = [4, 7].
	m := NewSymMatrix(2)
	m.Set(0, 0, 2)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	y := make([]float64, 2)
	m.MulVec([]float64{1, 2}, y)
	if y[0] != 4 || y[1] != 7 {
		t.Errorf("MulVec = %v", y)
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(30)
		a := randSPD(n, r)
		x := randVector(n, r)
		y := make([]float64, n)
		a.MulVec(x, y)
		d := a.Dense()
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < n; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-10*(1+math.Abs(want)) {
				t.Fatalf("n=%d row %d: %v vs %v", n, i, y[i], want)
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(40)
		a := randSPD(n, r)
		xTrue := randVector(n, r)
		b := make([]float64, n)
		a.MulVec(xTrue, b)
		ch, err := NewCholesky(a, FactorOpts{})
		if err != nil {
			t.Fatal(err)
		}
		x, err := ch.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8*(1+math.Abs(xTrue[i])) {
				t.Fatalf("n=%d: x[%d]=%v want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewSymMatrix(2)
	a.Set(0, 0, 1)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1) // eigenvalues 3, −1
	if _, err := NewCholesky(a, FactorOpts{}); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

// TestCholeskyParallelRejectsIndefinite puts a negative pivot three panels
// in, where the parallel trailing-update stages reach it.
func TestCholeskyParallelRejectsIndefinite(t *testing.T) {
	a := NewSymMatrix(200)
	for i := 0; i < 200; i++ {
		a.Set(i, i, 1)
	}
	a.Set(150, 150, -1)
	if _, err := NewCholesky(a, FactorOpts{Workers: 4}); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("n=200 workers=4: err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyDet(t *testing.T) {
	// det([4 2; 2 3]) = 8.
	a := NewSymMatrix(2)
	a.Set(0, 0, 4)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	ch, err := NewCholesky(a, FactorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d := ch.Det(); math.Abs(d-8) > 1e-12 {
		t.Errorf("Det = %v", d)
	}
	if ld := ch.LogDet(); math.Abs(ld-math.Log(8)) > 1e-12 {
		t.Errorf("LogDet = %v", ld)
	}
}

func TestCGMatchesCholesky(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 2 + r.Intn(60)
		a := randSPD(n, r)
		b := randVector(n, r)
		ch, err := NewCholesky(a, FactorOpts{})
		if err != nil {
			t.Fatal(err)
		}
		xd, err := ch.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveCG(a, b, CGOptions{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("CG did not converge: residual %v", res.Residual)
		}
		for i := range xd {
			if math.Abs(res.X[i]-xd[i]) > 1e-7*(1+math.Abs(xd[i])) {
				t.Fatalf("n=%d: CG x[%d]=%v Cholesky %v", n, i, res.X[i], xd[i])
			}
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := randSPD(5, rand.New(rand.NewSource(1)))
	res, err := SolveCG(a, make([]float64, 5), CGOptions{})
	if err != nil || !res.Converged {
		t.Fatalf("zero rhs: %v %+v", err, res)
	}
	if NormInf(res.X) != 0 {
		t.Error("zero rhs should give zero solution")
	}
}

func TestCGInitialGuess(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := randSPD(20, r)
	xTrue := randVector(20, r)
	b := make([]float64, 20)
	a.MulVec(xTrue, b)
	// Starting at the exact solution must converge in 0 iterations.
	res, err := SolveCG(a, b, CGOptions{X0: xTrue, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || !res.Converged {
		t.Errorf("warm start: %+v", res)
	}
}

func TestCGBreakdownOnIndefinite(t *testing.T) {
	a := NewSymMatrix(2)
	a.Set(0, 0, 1)
	a.Set(1, 0, 0)
	a.Set(1, 1, -1)
	_, err := SolveCG(a, []float64{0, 1}, CGOptions{MaxIter: 50})
	if !errors.Is(err, ErrCGBreakdown) {
		t.Errorf("err = %v, want ErrCGBreakdown", err)
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Errorf("Norm2 = %v", Norm2(x))
	}
	if NormInf([]float64{-7, 2}) != 7 {
		t.Error("NormInf wrong")
	}
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v", y)
	}
	if Sum([]float64{1, 2, 3.5}) != 6.5 {
		t.Error("Sum wrong")
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	big := math.MaxFloat64 / 2
	if got := Norm2([]float64{big, big}); math.IsInf(got, 0) {
		t.Error("Norm2 overflowed")
	}
	tiny := 1e-300
	got := Norm2([]float64{tiny, tiny})
	want := tiny * math.Sqrt2
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("Norm2 underflow: %v want %v", got, want)
	}
}

func TestMulVecSymmetryProperty(t *testing.T) {
	// For symmetric A: xᵀ(A·y) = yᵀ(A·x).
	r := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(25)
		a := randSPD(n, rr)
		x := randVector(n, r)
		y := randVector(n, r)
		ax := make([]float64, n)
		ay := make([]float64, n)
		a.MulVec(x, ax)
		a.MulVec(y, ay)
		l, rv := Dot(y, ax), Dot(x, ay)
		return math.Abs(l-rv) <= 1e-8*(1+math.Abs(l))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestResidual(t *testing.T) {
	a := NewSymMatrix(2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	if got := Residual(a, []float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Errorf("Residual = %v", got)
	}
	if got := Residual(a, []float64{0, 0}, []float64{3, 4}); math.Abs(got-5) > 1e-14 {
		t.Errorf("Residual = %v", got)
	}
}

func BenchmarkCholesky(b *testing.B) {
	a := randSPD(238, rand.New(rand.NewSource(1))) // Barberá-sized system
	rhs := randVector(238, rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := NewCholesky(a, FactorOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ch.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCG(b *testing.B) {
	a := randSPD(238, rand.New(rand.NewSource(1)))
	rhs := randVector(238, rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveCG(a, rhs, CGOptions{Tol: 1e-10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulVec(b *testing.B) {
	a := randSPD(500, rand.New(rand.NewSource(1)))
	x := randVector(500, rand.New(rand.NewSource(2)))
	y := make([]float64, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
}
