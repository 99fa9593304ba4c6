package workloads

import (
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func TestDESClassicVector(t *testing.T) {
	// The canonical worked example (used in countless DES walkthroughs):
	// key 133457799BBCDFF1, plaintext 0123456789ABCDEF.
	got := DESEncryptBlock(0x0123456789ABCDEF, 0x133457799BBCDFF1)
	if got != 0x85E813540F0AB405 {
		t.Fatalf("DES encrypt = %#016x, want 85E813540F0AB405", got)
	}
}

func TestDESFIPSVectors(t *testing.T) {
	// Vectors from the NBS/NIST validation suite.
	cases := []struct{ key, pt, ct uint64 }{
		{0x0101010101010101, 0x8000000000000000, 0x95F8A5E5DD31D900},
		{0x0101010101010101, 0x4000000000000000, 0xDD7F121CA5015619},
		{0x0101010101010101, 0x2000000000000000, 0x2E8653104F3834EA},
		{0x8001010101010101, 0x0000000000000000, 0x95A8D72813DAA94D},
		{0x7CA110454A1A6E57, 0x01A1D6D039776742, 0x690F5B0D9A26939B},
		{0x0131D9619DC1376E, 0x5CD54CA83DEF57DA, 0x7A389D10354BD271},
	}
	for _, c := range cases {
		if got := DESEncryptBlock(c.pt, c.key); got != c.ct {
			t.Errorf("E(%#x, key %#x) = %#x, want %#x", c.pt, c.key, got, c.ct)
		}
		if got := DESDecryptBlock(c.ct, c.key); got != c.pt {
			t.Errorf("D(%#x, key %#x) = %#x, want %#x", c.ct, c.key, got, c.pt)
		}
	}
}

func TestDESRoundTripProperty(t *testing.T) {
	check := func(block, key uint64) bool {
		return DESDecryptBlock(DESEncryptBlock(block, key), key) == block
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTripleDESDegeneratesToDES(t *testing.T) {
	// With K1 = K2 = K3, EDE3 equals single DES.
	key := uint64(0x0123456789ABCDEF)
	td := NewTripleDES(key, key, key)
	pt := uint64(0x4E6F772069732074)
	if td.EncryptBlock(pt) != DESEncryptBlock(pt, key) {
		t.Fatal("EDE3 with equal keys != single DES")
	}
}

func TestTripleDESKnownVector(t *testing.T) {
	// NIST SP 800-20 style 3-key vector: keys of example TDEA publications.
	td := NewTripleDES(0x0123456789ABCDEF, 0x23456789ABCDEF01, 0x456789ABCDEF0123)
	pt := uint64(0x5468652071756663) // "The qufc"
	ct := td.EncryptBlock(pt)
	if td.DecryptBlock(ct) != pt {
		t.Fatal("EDE3 round trip failed")
	}
	if ct == pt {
		t.Fatal("ciphertext equals plaintext")
	}
}

func TestTripleDESRoundTripProperty(t *testing.T) {
	td := NewTripleDES(0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x89ABCDEF01234567)
	check := func(b uint64) bool { return td.DecryptBlock(td.EncryptBlock(b)) == b }
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketEncryptDecrypt(t *testing.T) {
	td := NewTripleDES(1, 2, 3)
	rng := prng.New(7)
	pkt := make([]uint64, 256)
	orig := make([]uint64, 256)
	for i := range pkt {
		pkt[i] = rng.Next()
		orig[i] = pkt[i]
	}
	td.EncryptPacket(pkt)
	same := 0
	for i := range pkt {
		if pkt[i] == orig[i] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d blocks unchanged by encryption", same)
	}
	td.DecryptPacket(pkt)
	if err := equalU64("packet", pkt, orig); err != nil {
		t.Fatal(err)
	}
}

func TestDESKeyScheduleShape(t *testing.T) {
	ks := DESKeySchedule(0x133457799BBCDFF1)
	for r, k := range ks {
		if k >= 1<<48 {
			t.Fatalf("round key %d exceeds 48 bits: %#x", r, k)
		}
	}
	// First round key from the classic walkthrough: 000110110000001011101111111111000111000001110010b.
	if ks[0] != 0x1B02EFFC7072 {
		t.Fatalf("K1 = %#x, want 0x1B02EFFC7072", ks[0])
	}
}

func TestNetbenchPacketDistribution(t *testing.T) {
	rng := prng.New(42)
	sizes := map[int]int{}
	for i := 0; i < 10000; i++ {
		b := netbenchPacketBytes(rng)
		if b < 2048 || b > 65536 {
			t.Fatalf("packet size %d outside the paper's 2K-64K range", b)
		}
		if b%8 != 0 {
			t.Fatalf("packet size %d not 8-byte aligned", b)
		}
		sizes[b]++
	}
	if len(sizes) < 5 {
		t.Fatalf("packet sizes not varied: %v", sizes)
	}
}

// The single-DES block functions, the 3DES packet helper and the 3DES
// inverse below are the reference implementations the tests check
// encryption against.

// DESEncryptBlock encrypts one 64-bit block.
func DESEncryptBlock(block, key uint64) uint64 {
	ks := DESKeySchedule(key)
	return desBlock(block, &ks, false)
}

// DESDecryptBlock decrypts one 64-bit block.
func DESDecryptBlock(block, key uint64) uint64 {
	ks := DESKeySchedule(key)
	return desBlock(block, &ks, true)
}

// EncryptPacket encrypts an 8-byte-aligned packet in ECB mode, in place.
func (t *TripleDES) EncryptPacket(p []uint64) {
	for i := range p {
		p[i] = t.EncryptBlock(p[i])
	}
}

// DecryptBlock inverts EncryptBlock.
func (t *TripleDES) DecryptBlock(b uint64) uint64 {
	b = desBlock(b, &t.k3, true)
	b = desBlock(b, &t.k2, false)
	return desBlock(b, &t.k1, true)
}

// DecryptPacket decrypts an ECB packet in place.
func (t *TripleDES) DecryptPacket(p []uint64) {
	for i := range p {
		p[i] = t.DecryptBlock(p[i])
	}
}
