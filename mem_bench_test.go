package oceanstore

// Memory benchmarks for the per-commit object machinery: run with
// -benchmem to see the small constants the zero-alloc pass drove them
// to.  (The message path's zero allocs/op is asserted, not benchmarked:
// TestSendDeliverZeroAlloc and TestBatchTickZeroAlloc in
// internal/simnet.)

import (
	"math/rand"
	"testing"

	"oceanstore/internal/crypt"
)

// BenchmarkBlockEncrypt measures one 4 KB position-bound block
// encryption with a cached cipher: the output buffer is the only
// allocation.
func BenchmarkBlockEncrypt(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	bc := crypt.NewBlockCipher(crypt.NewBlockKey(r))
	plain := make([]byte, 4096)
	r.Read(plain)
	b.SetBytes(int64(len(plain)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bc.EncryptBlock(uint64(i), plain)
	}
}
