package erasure

import (
	"math/rand"
	"testing"
)

// Erasure kernel micro-benchmarks.  mulSlice is the innermost loop of
// both encoder and decoder; the Decode variants pin the three paths a
// deployment sees: all data shards live (systematic memcpy), a repair
// storm hitting one fragment-index set repeatedly (cached inverse), and
// scattered loss patterns (cold inverse).

func benchData(n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(42)).Read(data)
	return data
}

func BenchmarkMulSlice(b *testing.B) {
	src := benchData(4096)
	dst := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulSlice(dst, src, byte(i%254)+2) // skip the 0 and 1 fast paths
	}
}

func BenchmarkMulSliceXOR(b *testing.B) {
	src := benchData(4096)
	dst := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulSlice(dst, src, 1)
	}
}

func BenchmarkRSEncode(b *testing.B) {
	rs, err := NewReedSolomon(16, 32)
	if err != nil {
		b.Fatal(err)
	}
	data := benchData(64 << 10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFragments(b *testing.B, rs *ReedSolomon, data []byte) []Fragment {
	b.Helper()
	frags, err := rs.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	return frags
}

// BenchmarkRSDecodeSystematic: every data shard survived — Decode
// should reassemble without touching the matrix machinery.
func BenchmarkRSDecodeSystematic(b *testing.B) {
	rs, _ := NewReedSolomon(16, 32)
	data := benchData(64 << 10)
	frags := benchFragments(b, rs, data)[:16]
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Decode(frags, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSDecodeRepairWarm: the same loss pattern every iteration —
// a repair storm regenerating many objects after one node failure.
func BenchmarkRSDecodeRepairWarm(b *testing.B) {
	rs, _ := NewReedSolomon(16, 32)
	data := benchData(64 << 10)
	all := benchFragments(b, rs, data)
	frags := append(append([]Fragment{}, all[4:16]...), all[20:24]...)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Decode(frags, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSDecodeRepairCold: a different loss pattern every
// iteration, so every decode pays for its own matrix inversion.
func BenchmarkRSDecodeRepairCold(b *testing.B) {
	rs, _ := NewReedSolomon(16, 32)
	data := benchData(64 << 10)
	all := benchFragments(b, rs, data)
	r := rand.New(rand.NewSource(7))
	sets := make([][]Fragment, 64)
	for i := range sets {
		perm := r.Perm(32)
		fs := make([]Fragment, 16)
		for j := 0; j < 16; j++ {
			fs[j] = all[perm[j]]
		}
		sets[i] = fs
	}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Decode(sets[i%len(sets)], len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecAblation compares the archival codecs (DESIGN.md §4):
// Reed-Solomon in its Vandermonde and Cauchy forms (MDS, GF(2^8) math)
// vs the Tornado-style code (XOR + peeling, slight overhead).
func BenchmarkCodecAblation(b *testing.B) {
	data := benchData(256 << 10)
	codecs := []struct {
		name string
		mk   func() Codec
	}{
		{"reed-solomon_16_32", func() Codec {
			c, _ := NewReedSolomon(16, 32)
			return c
		}},
		{"cauchy-rs_16_32", func() Codec {
			c, _ := NewCauchyReedSolomon(16, 32)
			return c
		}},
		{"tornado_16_32", func() Codec {
			c, _ := NewTornado(16, 32, 7)
			return c
		}},
	}
	for _, tc := range codecs {
		b.Run("encode_"+tc.name, func(b *testing.B) {
			c := tc.mk()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode_"+tc.name, func(b *testing.B) {
			c := tc.mk()
			frags, _ := c.Encode(data)
			// Drop a quarter of the fragments to force real decoding.
			sub := append([]Fragment(nil), frags[8:]...)
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(sub, len(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
