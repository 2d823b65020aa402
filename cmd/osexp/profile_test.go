package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// TestMemProfileIsTheLiveWorld: -memprofile's in-use space is the heap
// the soak's mem rail calls live, taken while the world is reachable,
// not the empty heap left once the experiment has returned.  The
// profile samples allocations, so its total is an estimate; the test
// samples every 4 KiB to keep that estimate within a few percent and
// allows 25 %.
func TestMemProfileIsTheLiveWorld(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 4 << 10
	saved, stderr := soakOpts, os.Stderr
	defer func() {
		soakOpts, os.Stderr = saved, stderr
		heapProfile.path, heapProfile.once = "", sync.Once{}
	}()
	dir := t.TempDir()
	heapProfile.path = filepath.Join(dir, "heap.pprof")
	rails, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer rails.Close()
	os.Stderr = rails
	soakOpts.nodes, soakOpts.ops = 4000, 4000
	runSoak(io.Discard, 1, nil)
	writeHeapProfile() // what main's stop function does after the run
	os.Stderr = stderr

	out, err := os.ReadFile(rails.Name())
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`live ([0-9.]+) MB after GC`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no live-heap figure on the mem rail:\n%s", out)
	}
	liveMB, _ := strconv.ParseFloat(string(m[1]), 64)
	inuseMB := float64(inuseSpace(t, heapProfile.path)) / (1 << 20)
	t.Logf("mem rail: live %.1f MB; heap profile: %.1f MB in use", liveMB, inuseMB)
	if inuseMB < 0.75*liveMB || inuseMB > 1.25*liveMB {
		t.Fatalf("heap profile holds %.1f MB in use, the rail %.1f MB live: not within 25 %%", inuseMB, liveMB)
	}
}

// inuseSpace sums the inuse_space values of a gzipped pprof profile,
// decoding just enough of its protobuf: the sample types (field 1), the
// samples' values (field 2 of each sample, field 2) and the string
// table (field 6).
func inuseSpace(t *testing.T, path string) int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var types []uint64 // string-table index of each sample type's name
	var values [][]int64
	var strs []string
	pbFields(t, pb, func(num int, v uint64, b []byte) {
		switch num {
		case 1:
			pbFields(t, b, func(num int, v uint64, _ []byte) {
				if num == 1 {
					types = append(types, v)
				}
			})
		case 2:
			var vals []int64
			pbFields(t, b, func(num int, v uint64, packed []byte) {
				if num != 2 {
					return
				}
				if packed == nil {
					vals = append(vals, int64(v))
					return
				}
				for len(packed) > 0 {
					x, n := binary.Uvarint(packed)
					if n <= 0 {
						t.Fatal("bad packed varint in a sample")
					}
					vals, packed = append(vals, int64(x)), packed[n:]
				}
			})
			values = append(values, vals)
		case 6:
			strs = append(strs, string(b))
		}
	})
	for i, s := range types {
		if int(s) < len(strs) && strs[s] == "inuse_space" {
			var sum int64
			for _, vals := range values {
				sum += vals[i]
			}
			return sum
		}
	}
	t.Fatal("profile has no inuse_space sample type")
	return 0
}

// pbFields calls fn with each field of one protobuf message: its number
// and, by wire type, its varint value or its bytes.
func pbFields(t *testing.T, b []byte, fn func(num int, v uint64, bytes []byte)) {
	t.Helper()
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatal("bad protobuf field key")
		}
		b = b[n:]
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				t.Fatal("bad protobuf varint")
			}
			fn(int(key>>3), v, nil)
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				t.Fatal("bad protobuf length")
			}
			fn(int(key>>3), 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 1:
			b = b[8:]
		case 5:
			b = b[4:]
		default:
			t.Fatalf("protobuf wire type %d", key&7)
		}
	}
}
