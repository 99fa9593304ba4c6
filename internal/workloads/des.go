package workloads

// Full DES / Triple-DES (EDE3) implementation, used by the 3DES benchmark
// ("used to encrypt electronic data [NIST FIPS 46-3]; network routers encrypt
// multiple packets as they arrive"). The implementation is bit-exact and is
// validated against published test vectors in des_test.go.

// Initial permutation (IP), 1-based bit positions as in FIPS 46-3.
var desIP = [64]byte{
	58, 50, 42, 34, 26, 18, 10, 2,
	60, 52, 44, 36, 28, 20, 12, 4,
	62, 54, 46, 38, 30, 22, 14, 6,
	64, 56, 48, 40, 32, 24, 16, 8,
	57, 49, 41, 33, 25, 17, 9, 1,
	59, 51, 43, 35, 27, 19, 11, 3,
	61, 53, 45, 37, 29, 21, 13, 5,
	63, 55, 47, 39, 31, 23, 15, 7,
}

// Final permutation (IP^-1).
var desFP = [64]byte{
	40, 8, 48, 16, 56, 24, 64, 32,
	39, 7, 47, 15, 55, 23, 63, 31,
	38, 6, 46, 14, 54, 22, 62, 30,
	37, 5, 45, 13, 53, 21, 61, 29,
	36, 4, 44, 12, 52, 20, 60, 28,
	35, 3, 43, 11, 51, 19, 59, 27,
	34, 2, 42, 10, 50, 18, 58, 26,
	33, 1, 41, 9, 49, 17, 57, 25,
}

// Expansion function E: 32 -> 48 bits.
var desE = [48]byte{
	32, 1, 2, 3, 4, 5,
	4, 5, 6, 7, 8, 9,
	8, 9, 10, 11, 12, 13,
	12, 13, 14, 15, 16, 17,
	16, 17, 18, 19, 20, 21,
	20, 21, 22, 23, 24, 25,
	24, 25, 26, 27, 28, 29,
	28, 29, 30, 31, 32, 1,
}

// Permutation P applied to the S-box output.
var desP = [32]byte{
	16, 7, 20, 21, 29, 12, 28, 17,
	1, 15, 23, 26, 5, 18, 31, 10,
	2, 8, 24, 14, 32, 27, 3, 9,
	19, 13, 30, 6, 22, 11, 4, 25,
}

// Key schedule: permuted choice 1 (64 -> 56) and 2 (56 -> 48).
var desPC1 = [56]byte{
	57, 49, 41, 33, 25, 17, 9,
	1, 58, 50, 42, 34, 26, 18,
	10, 2, 59, 51, 43, 35, 27,
	19, 11, 3, 60, 52, 44, 36,
	63, 55, 47, 39, 31, 23, 15,
	7, 62, 54, 46, 38, 30, 22,
	14, 6, 61, 53, 45, 37, 29,
	21, 13, 5, 28, 20, 12, 4,
}

var desPC2 = [48]byte{
	14, 17, 11, 24, 1, 5,
	3, 28, 15, 6, 21, 10,
	23, 19, 12, 4, 26, 8,
	16, 7, 27, 20, 13, 2,
	41, 52, 31, 37, 47, 55,
	30, 40, 51, 45, 33, 48,
	44, 49, 39, 56, 34, 53,
	46, 42, 50, 36, 29, 32,
}

// Left-shift schedule per round.
var desShifts = [16]byte{1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1}

// The eight S-boxes.
var desSBox = [8][64]byte{
	{
		14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
		0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
		4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
		15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
	},
	{
		15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
		3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
		0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
		13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
	},
	{
		10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
		13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
		13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
		1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
	},
	{
		7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
		13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
		10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
		3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
	},
	{
		2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
		14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
		4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
		11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
	},
	{
		12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
		10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
		9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
		4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
	},
	{
		4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
		13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
		1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
		6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
	},
	{
		13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
		1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
		7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
		2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
	},
}

// permute extracts the 1-based source bits listed in table (counting from the
// MSB of a width-bit word) and packs them MSB-first.
func permute(v uint64, width int, table []byte) uint64 {
	var out uint64
	for _, src := range table {
		out <<= 1
		out |= (v >> (uint(width) - uint(src))) & 1
	}
	return out
}

// DESKeySchedule expands a 64-bit key into 16 48-bit round keys.
func DESKeySchedule(key uint64) [16]uint64 {
	var ks [16]uint64
	cd := permute(key, 64, desPC1[:]) // 56 bits
	c := uint32(cd>>28) & 0x0FFFFFFF
	d := uint32(cd) & 0x0FFFFFFF
	rot28 := func(x uint32, n byte) uint32 {
		return ((x << n) | (x >> (28 - n))) & 0x0FFFFFFF
	}
	for r := 0; r < 16; r++ {
		c = rot28(c, desShifts[r])
		d = rot28(d, desShifts[r])
		ks[r] = permute(uint64(c)<<28|uint64(d), 56, desPC2[:])
	}
	return ks
}

// desF is the Feistel function: expand, mix key, S-boxes, permute.
func desF(r uint32, k uint64) uint32 {
	x := permute(uint64(r), 32, desE[:]) ^ k // 48 bits
	var out uint32
	for i := 0; i < 8; i++ {
		six := byte(x>>uint(42-6*i)) & 0x3F
		row := ((six >> 4) & 2) | (six & 1)
		col := (six >> 1) & 0xF
		out = out<<4 | uint32(desSBox[i][row*16+col])
	}
	return uint32(permute(uint64(out), 32, desP[:]))
}

// desBlock runs the 16 Feistel rounds with the given key schedule order.
func desBlock(block uint64, ks *[16]uint64, decrypt bool) uint64 {
	v := permute(block, 64, desIP[:])
	l, r := uint32(v>>32), uint32(v)
	for round := 0; round < 16; round++ {
		k := ks[round]
		if decrypt {
			k = ks[15-round]
		}
		l, r = r, l^desF(r, k)
	}
	// Note the final swap: R16 || L16.
	return permute(uint64(r)<<32|uint64(l), 64, desFP[:])
}

// TripleDES holds an EDE3 key schedule.
type TripleDES struct {
	k1, k2, k3 [16]uint64
}

// NewTripleDES builds the schedule for keys (k1, k2, k3).
func NewTripleDES(k1, k2, k3 uint64) *TripleDES {
	return &TripleDES{DESKeySchedule(k1), DESKeySchedule(k2), DESKeySchedule(k3)}
}

// EncryptBlock computes E_k3(D_k2(E_k1(block))).
func (t *TripleDES) EncryptBlock(b uint64) uint64 {
	b = desBlock(b, &t.k1, false)
	b = desBlock(b, &t.k2, true)
	return desBlock(b, &t.k3, false)
}
