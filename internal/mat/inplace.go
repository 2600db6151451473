package mat

import "fmt"

// MulInto computes dst = a·b, the destination-passing variant of Mul.
// dst must be a.Rows()×b.Cols() and must NOT share backing storage with a
// or b, because rows of the operands are re-read while accumulating. dst
// is fully overwritten, is owned by the caller and is never retained. It
// panics on dimension mismatch, like Mul.
func MulInto(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulInto dimension mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulInto destination %d×%d, want %d×%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}
