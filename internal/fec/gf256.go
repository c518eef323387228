// GF(256) arithmetic for the Reed-Solomon coder. The field is the
// classic RS-255 field GF(2^8) with the primitive polynomial
// x^8+x^4+x^3+x^2+1 (0x11d), the same one used by CD-ROM, QR and RAID-6
// codes; addition is XOR and multiplication goes through log/exp tables
// built once at init.
package fec

// gfPoly is the primitive reduction polynomial (0x11d without the x^8 bit
// once the overflow shift is applied).
const gfPoly = 0x1d

var (
	gfExp [512]byte // doubled so gfMul can skip a modular reduction
	gfLog [256]byte
	// gfMulTable[a][b] = a*b: 64 KiB, one row per coefficient.
	gfMulTable [256][256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			gfMulTable[a][b] = gfExp[int(gfLog[a])+int(gfLog[b])]
		}
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a nonzero element.
func gfInv(a byte) byte {
	return gfExp[255-int(gfLog[a])]
}

// gfMulSlice sets dst[i] = c * src[i] for each i.
func gfMulSlice(dst, src []byte, c byte) {
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	logC := int(gfLog[c])
	for i, s := range src {
		if s == 0 {
			dst[i] = 0
		} else {
			dst[i] = gfExp[logC+int(gfLog[s])]
		}
	}
}

// gfMulAddSlice sets dst[i] ^= c * src[i] for each i — the inner loop of
// both encode and decode. One row of the product table replaces the two
// log lookups and the zero test per byte.
func gfMulAddSlice(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	row := &gfMulTable[c]
	dst = dst[:len(src)]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// matrix is a byte matrix in row-major order.
type matrix struct {
	rows, cols int
	d          []byte
}

func newMatrix(rows, cols int) matrix {
	return matrix{rows: rows, cols: cols, d: make([]byte, rows*cols)}
}

func (m matrix) at(r, c int) byte     { return m.d[r*m.cols+c] }
func (m matrix) set(r, c int, v byte) { m.d[r*m.cols+c] = v }
func (m matrix) row(r int) []byte     { return m.d[r*m.cols : (r+1)*m.cols] }

// vandermonde returns the rows×cols matrix V[i][j] = α_i^j with α_i the
// i-th power of the field generator — distinct evaluation points, so any
// cols×cols submatrix is invertible (the classic Vandermonde property).
func vandermonde(rows, cols int) matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		// α_r = gfExp[r]; α_r^c = gfExp[(r*c) % 255].
		for c := 0; c < cols; c++ {
			m.set(r, c, gfExp[(r*c)%255])
		}
	}
	return m
}

// mul returns m·o.
func (m matrix) mul(o matrix) matrix {
	out := newMatrix(m.rows, o.cols)
	for r := 0; r < m.rows; r++ {
		orow := out.row(r)
		for k := 0; k < m.cols; k++ {
			gfMulAddSlice(orow, o.row(k), m.at(r, k))
		}
	}
	return out
}

// invert returns the inverse of a square matrix via Gauss-Jordan
// elimination, or ok == false when the matrix is singular.
func (m matrix) invert() (matrix, bool) {
	if m.rows != m.cols {
		return matrix{}, false
	}
	n := m.rows
	// Augment [work | I] and reduce work to I in place.
	work := newMatrix(n, n)
	copy(work.d, m.d)
	inv := newMatrix(n, n)
	for i := 0; i < n; i++ {
		inv.set(i, i, 1)
	}
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return matrix{}, false
		}
		if pivot != col {
			wp, wc := work.row(pivot), work.row(col)
			for i := range wp {
				wp[i], wc[i] = wc[i], wp[i]
			}
			ip, ic := inv.row(pivot), inv.row(col)
			for i := range ip {
				ip[i], ic[i] = ic[i], ip[i]
			}
		}
		// Scale the pivot row to 1.
		if p := work.at(col, col); p != 1 {
			pi := gfInv(p)
			gfMulSlice(work.row(col), work.row(col), pi)
			gfMulSlice(inv.row(col), inv.row(col), pi)
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := work.at(r, col); f != 0 {
				gfMulAddSlice(work.row(r), work.row(col), f)
				gfMulAddSlice(inv.row(r), inv.row(col), f)
			}
		}
	}
	return inv, true
}
