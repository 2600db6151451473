package mat

import "testing"

func fill(m *Dense, base float64) *Dense {
	for i := range m.data {
		m.data[i] = base + float64(i)
	}
	return m
}

// TestInPlaceOpsMatchAllocating checks MulInto against Mul, bitwise.
func TestInPlaceOpsMatchAllocating(t *testing.T) {
	a := fill(NewDense(3, 4), 1)
	p := fill(NewDense(4, 2), -2)
	mul := NewDense(3, 2)
	MulInto(mul, a, p)
	if want := Mul(a, p); !Equalish(mul, want, 0) {
		t.Error("MulInto differs from Mul")
	}
}

// TestInPlaceOpsOverwriteStaleDst checks that MulInto's destination is
// fully overwritten, never accumulated into.
func TestInPlaceOpsOverwriteStaleDst(t *testing.T) {
	a := fill(NewDense(2, 2), 1)
	p := Identity(2)
	dst := fill(NewDense(2, 2), 100)
	MulInto(dst, a, p)
	if !Equalish(dst, a, 0) {
		t.Error("MulInto accumulated into a stale destination")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic on dimension mismatch", name)
		}
	}()
	f()
}

// TestInPlaceOpsPanicOnDims verifies the dimension checks.
func TestInPlaceOpsPanicOnDims(t *testing.T) {
	a := NewDense(3, 4)
	mustPanic(t, "MulInto(inner)", func() { MulInto(NewDense(3, 2), a, NewDense(5, 2)) })
	mustPanic(t, "MulInto(dst)", func() { MulInto(NewDense(2, 2), a, NewDense(4, 2)) })
}

// TestInPlaceOpsZeroAlloc pins the point of MulInto: no allocation when
// the destination is supplied.
func TestInPlaceOpsZeroAlloc(t *testing.T) {
	a := fill(NewDense(8, 8), 1)
	b := fill(NewDense(8, 8), 2)
	dst := NewDense(8, 8)
	if n := testing.AllocsPerRun(50, func() { MulInto(dst, a, b) }); n != 0 {
		t.Errorf("MulInto allocates %v/op, want 0", n)
	}
}
