package scramble

import (
	"math/rand/v2"
	"testing"
)

func TestPermutationIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	p := Permutation(rng, 1000)
	seen := make([]bool, 1000)
	for _, v := range p {
		if v < 0 || v >= 1000 || seen[v] {
			t.Fatalf("not a permutation: %d", v)
		}
		seen[v] = true
	}
}

func TestPermutationUniformish(t *testing.T) {
	// Smoke test of uniformity: position of element 0 should spread out.
	rng := rand.New(rand.NewPCG(2, 2))
	const n, trials = 10, 20000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		p := Permutation(rng, n)
		for pos, v := range p {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		// Expected 2000 per position; allow wide slack.
		if c < 1600 || c > 2400 {
			t.Errorf("position %d count %d far from expected 2000", pos, c)
		}
	}
}

func TestLayout(t *testing.T) {
	l := NewLayout(103, 25)
	if l.NumBlocks() != 5 {
		t.Fatalf("NumBlocks = %d, want 5", l.NumBlocks())
	}
	s, e := l.BlockBounds(0)
	if s != 0 || e != 25 {
		t.Errorf("block 0 bounds [%d,%d)", s, e)
	}
	s, e = l.BlockBounds(4)
	if s != 100 || e != 103 {
		t.Errorf("last block bounds [%d,%d), want [100,103)", s, e)
	}
	if l.RowsIn(3, 2) != 28 || l.RowsIn(4, 3) != 3 || l.RowsIn(5, 1) != 0 {
		t.Errorf("RowsIn(3,2), (4,3), (5,1) = %d, %d, %d; want 28, 3, 0", l.RowsIn(3, 2), l.RowsIn(4, 3), l.RowsIn(5, 1))
	}
}

func TestLayoutDefaults(t *testing.T) {
	l := NewLayout(100, 0)
	if l.BlockSize != DefaultBlockSize {
		t.Errorf("BlockSize = %d, want %d", l.BlockSize, DefaultBlockSize)
	}
	empty := NewLayout(0, 25)
	if empty.NumBlocks() != 0 {
		t.Errorf("empty NumBlocks = %d", empty.NumBlocks())
	}
	neg := NewLayout(-5, 25)
	if neg.Rows != 0 {
		t.Errorf("negative rows not clamped: %d", neg.Rows)
	}
}

func TestCursorVisitsAllBlocksOnceWithWraparound(t *testing.T) {
	l := NewLayout(100, 10) // 10 blocks
	c := NewCursor(l, 7)
	var order []int
	for b := c.Peek(); b != -1; b = c.Peek() {
		order = append(order, b)
		if c.Remaining() != l.NumBlocks()-len(order)+1 {
			t.Fatalf("at block %d: Remaining = %d", b, c.Remaining())
		}
		c.Advance(1)
	}
	want := []int{7, 8, 9, 0, 1, 2, 3, 4, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("visited %d blocks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d", i, order[i], want[i])
		}
	}
	if !c.Exhausted() || c.Remaining() != 0 {
		t.Error("cursor not exhausted after full walk")
	}

	// The engine advances a span of blocks at a time, a span ending at the
	// last block at the latest: the walk wraps the same way.
	c = NewCursor(l, 7)
	for _, run := range []struct{ n, next int }{{3, 0}, {4, 4}, {3, -1}} {
		c.Advance(run.n)
		if c.Peek() != run.next {
			t.Fatalf("after a run of %d: Peek = %d, want %d", run.n, c.Peek(), run.next)
		}
	}
}

func TestCursorStartModulo(t *testing.T) {
	l := NewLayout(100, 10)
	c := NewCursor(l, 27) // 27 mod 10 = 7
	if c.Peek() != 7 {
		t.Errorf("Peek = %d, want 7", c.Peek())
	}
	c2 := NewCursor(l, -3) // -3 mod 10 = 7
	if c2.Peek() != 7 {
		t.Errorf("negative start Peek = %d, want 7", c2.Peek())
	}
}

// TestCursorFetchAccounting: only the blocks credited as fetched count,
// however many the walk passes over.
func TestCursorFetchAccounting(t *testing.T) {
	l := NewLayout(100, 10)
	c := NewCursor(l, 0)
	c.Advance(5)
	c.AddFetched(3) // two of the five skipped
	c.Advance(2)
	c.AddFetched(0)
	if c.BlocksFetched() != 3 {
		t.Errorf("BlocksFetched = %d, want 3", c.BlocksFetched())
	}
	if c.Remaining() != 3 {
		t.Errorf("Remaining = %d, want 3", c.Remaining())
	}
}

func TestCursorPeekDoesNotAdvance(t *testing.T) {
	l := NewLayout(30, 10)
	c := NewCursor(l, 1)
	if c.Peek() != 1 || c.Peek() != 1 || c.Remaining() != 3 {
		t.Error("Peek advanced")
	}
	c.Advance(1)
	if c.Peek() != 2 {
		t.Errorf("Peek after Advance(1) = %d, want 2", c.Peek())
	}
}

func TestCursorEmptyLayout(t *testing.T) {
	c := NewCursor(NewLayout(0, 10), 5)
	if c.Peek() != -1 {
		t.Error("empty layout Peek != -1")
	}
	if !c.Exhausted() || c.Remaining() != 0 || c.Start() != 0 {
		t.Errorf("empty layout: Exhausted %v, Remaining %d, Start %d", c.Exhausted(), c.Remaining(), c.Start())
	}
}
