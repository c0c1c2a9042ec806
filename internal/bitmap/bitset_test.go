package bitmap

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := setBits(b); got != nil {
		t.Fatalf("fresh bitset has bits %v", got)
	}
	want := []int{0, 1, 63, 64, 65, 129}
	for _, i := range want {
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("Get(%d) false after Set", i)
		}
	}
	if got := setBits(b); !reflect.DeepEqual(got, want) {
		t.Errorf("bits %v, want %v", got, want)
	}
	b.Reset()
	if got := setBits(b); got != nil {
		t.Errorf("bits after Reset: %v", got)
	}
}

// setBits lists the set bits of b in order.
func setBits(b *Bitset) []int {
	var out []int
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) {
			out = append(out, i)
		}
	}
	return out
}

func TestBitsetNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBitset(-1) did not panic")
		}
	}()
	NewBitset(-1)
}

func TestBitsetOrAnd(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	a.Set(3)
	a.Set(70)
	b.Set(70)
	b.Set(99)
	or := a.Clone()
	or.OrInto(b)
	if got := setBits(or); !reflect.DeepEqual(got, []int{3, 70, 99}) {
		t.Errorf("OrInto wrong: %v", got)
	}
	and := a.Clone()
	and.AndInto(b)
	if got := setBits(and); !reflect.DeepEqual(got, []int{70}) {
		t.Errorf("AndInto wrong: %v", got)
	}
}

func TestBitsetOrIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("OrInto mismatched lengths did not panic")
		}
	}()
	NewBitset(10).OrInto(NewBitset(20))
}

func TestBitsetClone(t *testing.T) {
	a := NewBitset(10)
	a.Set(5)
	c := a.Clone()
	c.Set(7)
	if a.Get(7) {
		t.Error("Clone shares storage with original")
	}
	if !c.Get(5) {
		t.Error("Clone lost original bit")
	}
}

func TestBlockIndex(t *testing.T) {
	// 10 rows, block size 3 → 4 blocks. codes: rows 0..9
	codes := []uint32{0, 1, 0, 2, 2, 2, 1, 1, 1, 0}
	ix := NewBlockIndex(codes, 3, 3)
	if ix.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d", ix.NumBlocks())
	}
	if ix.NumValues() != 3 {
		t.Fatalf("NumValues = %d", ix.NumValues())
	}
	// block 0 = rows 0,1,2 → codes {0,1}; block 1 = rows 3,4,5 → {2};
	// block 2 = rows 6,7,8 → {1}; block 3 = row 9 → {0}.
	type q struct {
		block int
		code  uint32
		want  bool
	}
	for _, c := range []q{
		{0, 0, true}, {0, 1, true}, {0, 2, false},
		{1, 2, true}, {1, 0, false},
		{2, 1, true}, {2, 0, false},
		{3, 0, true}, {3, 1, false},
	} {
		if got := ix.BlockContains(c.block, c.code); got != c.want {
			t.Errorf("BlockContains(%d,%d) = %v, want %v", c.block, c.code, got, c.want)
		}
	}
}

func TestBlockIndexUnionBlocks(t *testing.T) {
	codes := []uint32{0, 1, 0, 2, 2, 2, 1, 1, 1, 0}
	ix := NewBlockIndex(codes, 3, 3)
	dst := NewBitset(ix.NumBlocks())
	ix.UnionBlocks(dst, []uint32{0, 2})
	// code 0 blocks {0,3}; code 2 blocks {1} → union {0,1,3}
	want := []bool{true, true, false, true}
	for i, w := range want {
		if dst.Get(i) != w {
			t.Errorf("union block %d = %v, want %v", i, dst.Get(i), w)
		}
	}
	// Union must reset prior contents.
	ix.UnionBlocks(dst, []uint32{1})
	want = []bool{true, false, true, false}
	for i, w := range want {
		if dst.Get(i) != w {
			t.Errorf("second union block %d = %v, want %v", i, dst.Get(i), w)
		}
	}
}

func TestBlockIndexMarkBatch(t *testing.T) {
	codes := []uint32{0, 1, 0, 2, 2, 2, 1, 1, 1, 0}
	ix := NewBlockIndex(codes, 3, 3)
	mask := make([]bool, 4)
	ix.MarkBatch(mask, 0, 4, []uint32{2})
	want := []bool{false, true, false, false}
	for i := range want {
		if mask[i] != want[i] {
			t.Errorf("mask[%d] = %v, want %v", i, mask[i], want[i])
		}
	}
	// Batch extending past the end must be truncated, leaving the tail of
	// the mask untouched.
	mask = []bool{true, true, true}
	ix.MarkBatch(mask, 3, 3, []uint32{0})
	if !mask[0] {
		t.Error("block 3 should contain code 0")
	}
	if mask[1] != true || mask[2] != true {
		t.Error("truncated batch overwrote mask tail")
	}
	// No active codes → all false.
	mask = make([]bool, 4)
	mask[0] = true
	ix.MarkBatch(mask, 0, 4, nil)
	for i, m := range mask {
		if m {
			t.Errorf("mask[%d] = true with no codes", i)
		}
	}
}

func TestBlockIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	rows := 5000
	numValues := 17
	blockSize := 25
	codes := make([]uint32, rows)
	for i := range codes {
		codes[i] = uint32(rng.IntN(numValues))
	}
	ix := NewBlockIndex(codes, numValues, blockSize)
	for b := 0; b < ix.NumBlocks(); b++ {
		present := map[uint32]bool{}
		lo := b * blockSize
		hi := min(lo+blockSize, rows)
		for _, c := range codes[lo:hi] {
			present[c] = true
		}
		for v := uint32(0); v < uint32(numValues); v++ {
			if got := ix.BlockContains(b, v); got != present[v] {
				t.Fatalf("block %d code %d: got %v, want %v", b, v, got, present[v])
			}
		}
	}
}
