package blockstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openFixtureStore(t *testing.T, rows, blockSize, dictLen int, seed uint64) (*Store, *Meta, [][]float64, [][]uint32) {
	t.Helper()
	path, meta, floats, codes := writeFixtureFile(t, rows, blockSize, dictLen, seed)
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, meta, floats, codes
}

// The fixture's columns: two float, one categorical.
const (
	colSmooth = 0
	colCat    = 1
	colNoisy  = 2
)

// checkBlock pins block b of column ci and requires its rows to be
// bit-identical to the fixture data.
func checkBlock(t *testing.T, p *Pool, s *Store, ci, b int, floats [][]float64, codes [][]uint32) {
	t.Helper()
	m := s.Meta()
	start, n := b*m.BlockSize, m.BlockRows(b)
	if m.Cols[ci].Kind == KindFloat {
		f, err := p.PinFloat(s, ci, b)
		if err != nil {
			t.Fatalf("PinFloat(%d,%d): %v", ci, b, err)
		}
		defer p.Unpin(f)
		got, err := f.FloatBlock(b)
		if err != nil || len(got) != n {
			t.Fatalf("FloatBlock(%d,%d): %d rows, %v; want %d", ci, b, len(got), err, n)
		}
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(floats[ci][start+i]) {
				t.Fatalf("col %d block %d row %d differs", ci, b, i)
			}
		}
		return
	}
	f, err := p.PinCat(s, ci, b)
	if err != nil {
		t.Fatalf("PinCat(%d,%d): %v", ci, b, err)
	}
	defer p.Unpin(f)
	got, err := f.CatBlock(b)
	if err != nil || len(got) != n {
		t.Fatalf("CatBlock(%d,%d): %d rows, %v; want %d", ci, b, len(got), err, n)
	}
	for i, c := range got {
		if c != codes[ci][start+i] {
			t.Fatalf("col %d block %d row %d differs", ci, b, i)
		}
	}
}

// requireUnpinned is the pin-leak guard: no extent may stay pinned once
// a test is done with the pool.
func requireUnpinned(t *testing.T, p *Pool) {
	t.Helper()
	if n := p.Stats().PinnedFrames; n != 0 {
		t.Errorf("PinnedFrames = %d at the end, want 0", n)
	}
}

func TestExtentBlocks(t *testing.T) {
	for _, c := range []struct{ blockSize, want int }{
		{1, 2048}, {25, 64}, {32, 64}, {33, 32}, {1000, 2}, {1024, 2}, {1025, 1}, {2048, 1}, {5000, 1},
	} {
		if got := ExtentBlocks(c.blockSize); got != c.want {
			t.Errorf("ExtentBlocks(%d) = %d, want %d", c.blockSize, got, c.want)
		}
	}
}

// TestPoolHitMiss pins the basic caching contract: the first pin of an
// extent misses and reads it once, a pin of any block of it afterwards
// hits without a read, and the decoded data is correct.
func TestPoolHitMiss(t *testing.T) {
	s, _, floats, codes := openFixtureStore(t, 500, 25, 4, 21)
	p := NewPool(1 << 20)
	defer p.Close()

	f1, err := p.PinFloat(s, colSmooth, 3)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p.PinFloat(s, colSmooth, 17) // same extent, another block
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f1 {
		t.Error("two blocks of one extent returned different frames")
	}
	if !f1.Contains(0) || !f1.Contains(19) || f1.Contains(20) {
		t.Error("the 20-block column's one extent should hold blocks 0..19")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.PinnedFrames != 1 {
		t.Errorf("hits=%d misses=%d pinned=%d, want 1/1/1", st.Hits, st.Misses, st.PinnedFrames)
	}
	if got := s.Reads(); got != 1 {
		t.Errorf("Reads = %d, want 1 (hit must not re-read)", got)
	}
	if st.BytesRead != s.BytesRead() || st.BytesRead <= 0 {
		t.Errorf("pool BytesRead = %d, store BytesRead = %d", st.BytesRead, s.BytesRead())
	}
	p.Unpin(f1)
	p.Unpin(f2)

	// Still cached after full unpin: a third pin is a hit, and every
	// block of every column reads back bit-exact.
	f3, err := p.PinFloat(s, colSmooth, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().Hits != 2 {
		t.Errorf("hits=%d after re-pin, want 2", p.Stats().Hits)
	}
	p.Unpin(f3)
	for ci := range s.Meta().Cols {
		for b := 0; b < s.Meta().NumBlocks(); b++ {
			checkBlock(t, p, s, ci, b, floats, codes)
		}
	}
	if got := s.Reads(); got != 3 {
		t.Errorf("Reads = %d, want 3 (one per column)", got)
	}
	requireUnpinned(t, p)
}

// floatExtentBytes returns what the pool charges for one full extent of
// the fixture's smooth float column.
func floatExtentBytes(t *testing.T, s *Store) int64 {
	t.Helper()
	p := NewPool(1 << 20)
	defer p.Close()
	f, err := p.PinFloat(s, colSmooth, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(f)
	return p.Stats().UsedBytes
}

// TestPoolEviction forces the working set past the budget and checks
// the replacement order: pinned extents survive, extents used once are
// evicted newest-first, and an extent pinned twice outlives a later
// scan longer than the budget.
func TestPoolEviction(t *testing.T) {
	const rows = 12 * 64 * 25 // 12 extents of 64 blocks
	s, _, _, _ := openFixtureStore(t, rows, 25, 4, 22)
	one := floatExtentBytes(t, s)
	p := NewPool(4*one + one/2)
	defer p.Close()
	pinned, err := p.PinFloat(s, colSmooth, 0)
	if err != nil {
		t.Fatal(err)
	}
	for x := 1; x <= 10; x++ {
		f, err := p.PinFloat(s, colSmooth, x*64+x) // some block of extent x
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
	}
	st := p.Stats()
	if st.Evictions != 7 {
		t.Errorf("evictions = %d, want 7 (11 extents through a 4-extent budget)", st.Evictions)
	}
	if st.UsedBytes > st.BudgetBytes {
		t.Errorf("used %d exceeds budget %d after unpins", st.UsedBytes, st.BudgetBytes)
	}

	// Extents 1..10 were each used once, so each new one evicted the
	// newest before it: the pinned 0, the first ones in (1, 2) and the
	// last (10) are resident, 3..9 gone.
	for x := 0; x <= 10; x++ {
		p.mu.Lock()
		_, ok := p.frames[frameKey{store: s, col: colSmooth, extent: int32(x)}]
		p.mu.Unlock()
		if want := x <= 2 || x == 10; ok != want {
			t.Errorf("extent %d resident = %v, want %v (once-used extents go newest-first)", x, ok, want)
		}
	}

	// A second pin makes 0 and 1 reused: both outlive a scan of nine
	// more extents through the 4½-extent budget, which recycles its own.
	pinTwice := []int{5, 1 * 64}
	pinUnpin := func(bs ...int) {
		t.Helper()
		for _, b := range bs {
			f, err := p.PinFloat(s, colSmooth, b)
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(f)
		}
	}
	pinUnpin(pinTwice...)
	p.Unpin(pinned)
	for x := 3; x <= 11; x++ {
		pinUnpin(x * 64)
	}
	reads := s.Reads()
	pinUnpin(pinTwice...)
	if s.Reads() != reads {
		t.Error("an extent pinned twice was evicted by a later scan longer than the budget")
	}
	requireUnpinned(t, p)
}

// TestPoolRepeatedScanKeepsReusedExtents makes two scans from block 0
// over 12 extents through a 4½-extent budget, as every query with the
// same start block does. Under plain LRU each scan evicts the prefix the
// next one starts on, and the second loads all 12 again; here the
// extents it finds resident become reused and stay, and it recycles its
// own once-used extents for the rest.
func TestPoolRepeatedScanKeepsReusedExtents(t *testing.T) {
	const extents = 12
	s, meta, _, _ := openFixtureStore(t, extents*64*25, 25, 4, 22)
	one := floatExtentBytes(t, s)
	p := NewPool(4*one + one/2)
	defer p.Close()
	scan := func() (loaded int64) {
		t.Helper()
		before := p.Stats().Misses
		var f *Frame
		for b := 0; b < meta.NumBlocks(); b++ {
			if f != nil && f.Contains(b) {
				continue
			}
			p.Unpin(f)
			var err error
			if f, err = p.PinFloat(s, colSmooth, b); err != nil {
				t.Fatal(err)
			}
		}
		p.Unpin(f)
		return p.Stats().Misses - before
	}
	if n := scan(); n != extents {
		t.Fatalf("first scan loaded %d extents, want %d", n, extents)
	}
	if n := scan(); n > 9 {
		t.Errorf("second scan loaded %d of %d extents, want at most 9: it evicted the prefix it came back to", n, extents)
	}
	requireUnpinned(t, p)
}

// TestPoolConcurrentPins hammers the pool from many goroutines over a
// tiny budget, checking data integrity under constant eviction, the
// singleflight property and concurrent first uses of blocks inside one
// extent (run with -race).
func TestPoolConcurrentPins(t *testing.T) {
	s, meta, floats, codes := openFixtureStore(t, 8000, 25, 5, 23) // 320 blocks, 5 extents a column
	p := NewPool(40_000)                                           // ~2 float extents: constant eviction pressure
	defer p.Close()

	nb := meta.NumBlocks()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed*3+1))
			for trial := 0; trial < 300; trial++ {
				b := int(rng.Uint32N(uint32(nb)))
				start := b * meta.BlockSize
				if rng.Uint32N(2) == 0 {
					f, err := p.PinFloat(s, colSmooth, b)
					if err != nil {
						t.Error(err)
						return
					}
					// The pinned block and a neighbour in the same extent.
					for _, bb := range []int{b, b ^ 1} {
						if !f.Contains(bb) {
							continue
						}
						got, err := f.FloatBlock(bb)
						if err != nil {
							t.Error(err)
						}
						for i, v := range got {
							if math.Float64bits(v) != math.Float64bits(floats[colSmooth][bb*meta.BlockSize+i]) {
								t.Errorf("float block %d row %d corrupt", bb, i)
								break
							}
						}
					}
					p.Unpin(f)
				} else {
					f, err := p.PinCat(s, colCat, b)
					if err != nil {
						t.Error(err)
						return
					}
					got, err := f.CatBlock(b)
					if err != nil {
						t.Error(err)
					}
					for i, c := range got {
						if c != codes[colCat][start+i] {
							t.Errorf("cat block %d row %d corrupt", b, i)
							break
						}
					}
					p.Unpin(f)
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != 8*300 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*300)
	}
	if st.Evictions == 0 {
		t.Error("no evictions under a 2-extent budget")
	}
	requireUnpinned(t, p)
}

// TestPoolSingleflight checks that concurrent pinners of one absent
// extent trigger exactly one physical read.
func TestPoolSingleflight(t *testing.T) {
	s, _, _, _ := openFixtureStore(t, 500, 25, 4, 24)
	p := NewPool(1 << 20)
	defer p.Close()

	const G = 16
	var wg sync.WaitGroup
	frames := make([]*Frame, G)
	start := make(chan struct{})
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			f, err := p.PinFloat(s, colSmooth, g) // 16 blocks of one extent
			if err != nil {
				t.Error(err)
				return
			}
			frames[g] = f
		}(g)
	}
	close(start)
	wg.Wait()
	if got := s.Reads(); got != 1 {
		t.Errorf("Reads = %d, want 1 (singleflight)", got)
	}
	if n := p.Stats().PinnedFrames; n != 1 {
		t.Errorf("PinnedFrames = %d with 16 pins of one extent, want 1", n)
	}
	for _, f := range frames {
		p.Unpin(f)
	}
	requireUnpinned(t, p)
}

// TestPoolWarmNoAlloc checks that a warmed pool pins and unpins a cached
// extent, and hands out a block inside a pinned one, without allocating
// — required to keep steady-state rounds allocation-free.
func TestPoolWarmNoAlloc(t *testing.T) {
	s, _, _, _ := openFixtureStore(t, 500, 25, 4, 26)
	p := NewPool(1 << 20)
	defer p.Close()
	f, err := p.PinFloat(s, colSmooth, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f)
	allocs := testing.AllocsPerRun(100, func() {
		f, err := p.PinFloat(s, colSmooth, 2)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
	})
	if allocs != 0 {
		t.Errorf("warm pin/unpin allocates %v per op, want 0", allocs)
	}

	// Inside a pinned extent: first uses (checksum + decode) and ready
	// blocks alike.
	f, err = p.PinFloat(s, colSmooth, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := 3
	allocs = testing.AllocsPerRun(10, func() {
		if _, err := f.FloatBlock(b); err != nil {
			t.Fatal(err)
		}
		if _, err := f.FloatBlock(2); err != nil {
			t.Fatal(err)
		}
		b++
	})
	if allocs != 0 {
		t.Errorf("block access inside a pinned extent allocates %v per op, want 0", allocs)
	}
	p.Unpin(f)
	requireUnpinned(t, p)

	// Churn: through a budget of one extent, every pin misses, decodes
	// every block and evicts the extent before it. Loads read into the
	// buffers released extents left on the freelist.
	const extents = 3
	s, _, _, _ = openFixtureStore(t, extents*64*25, 25, 4, 26)
	p = NewPool(floatExtentBytes(t, s))
	x := 0
	churn := func() {
		f, err := p.PinFloat(s, colSmooth, x*64)
		if err != nil {
			t.Fatal(err)
		}
		ensureExtent(t, f)
		p.Unpin(f)
		x = (x + 1) % extents
	}
	for range 2 * extents {
		churn()
	}
	misses := p.Stats().Misses
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("pin, decode and evict of an extent allocates %v per op, want 0", allocs)
	}
	if n := p.Stats().Misses - misses; n != 101 {
		t.Errorf("%d misses in 101 churn ops, want one each", n)
	}
	requireUnpinned(t, p)
}

// ensureExtent makes every block of a pinned frame ready.
func ensureExtent(t *testing.T, f *Frame) {
	t.Helper()
	for b := f.first; b < f.first+f.n; b++ {
		if err := f.Ensure(b); err != nil {
			t.Fatal(err)
		}
	}
}

// extentRawBytes is the length of extent x of column ci as read.
func extentRawBytes(t *testing.T, s *Store, ci, x int) int64 {
	t.Helper()
	n := s.ExtentBlocks()
	_, raw, ok := s.extentSpan(ci, x*n, min((x+1)*n, s.Meta().NumBlocks()))
	if !ok {
		t.Fatalf("extent %d of column %d is not one read", x, ci)
	}
	return int64(raw)
}

// TestPoolReleasesRawOfDecodedExtent pins the charge rule: an extent
// pays for its bytes as read only while a block of it is unchecked.
func TestPoolReleasesRawOfDecodedExtent(t *testing.T) {
	const extents = 4
	s, meta, floats, _ := openFixtureStore(t, extents*64*25, 25, 4, 51)
	decoded := int64(64*25) * 8
	raw := extentRawBytes(t, s, colSmooth, 0)

	// The charge falls by exactly the raw length when the last block
	// becomes ready, and not before.
	p := NewPool(1 << 20)
	f, err := p.PinFloat(s, colSmooth, 0)
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b < 64; b++ {
		if got := p.Stats().UsedBytes; got != raw+decoded {
			t.Fatalf("UsedBytes = %d with %d of 64 blocks ready, want %d (as read + decoded)", got, b, raw+decoded)
		}
		if err := f.Ensure(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().UsedBytes; got != decoded {
		t.Errorf("UsedBytes = %d with every block ready, want %d (decoded only)", got, decoded)
	}
	p.Unpin(f)
	requireUnpinned(t, p)

	// One block left unread keeps the raw charge, and the bytes it
	// decodes from survive other extents loading and evicting through
	// the freelist of read buffers.
	full := raw + decoded
	p = NewPool(2 * full)
	held, err := p.PinFloat(s, colSmooth, 0)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 63; b++ {
		if err := held.Ensure(b); err != nil {
			t.Fatal(err)
		}
	}
	for x := 1; x < extents; x++ {
		f, err := p.PinFloat(s, colSmooth, x*64)
		if err != nil {
			t.Fatal(err)
		}
		ensureExtent(t, f)
		p.Unpin(f)
	}
	p.mu.Lock()
	charge := held.bytes
	p.mu.Unlock()
	if charge != full {
		t.Errorf("extent with a block unread charged %d, want %d (as read + decoded)", charge, full)
	}
	if p.Stats().Evictions == 0 {
		t.Error("no extent was evicted")
	}
	got, err := held.FloatBlock(63)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(floats[colSmooth][63*25+i]) {
			t.Fatalf("block 63 row %d differs after the other extents' loads", i)
		}
	}
	p.Unpin(held)
	requireUnpinned(t, p)

	// Two dense passes over the table through a budget that holds every
	// decoded extent but not every extent as read too: the second pass
	// is all hits.
	var maxRaw int64
	for x := range extents {
		maxRaw = max(maxRaw, extentRawBytes(t, s, colSmooth, x))
	}
	p = NewPool(extents*decoded + maxRaw)
	pass := func() (loaded int64) {
		before := p.Stats().Misses
		for x := range meta.NumBlocks() / 64 {
			f, err := p.PinFloat(s, colSmooth, x*64)
			if err != nil {
				t.Fatal(err)
			}
			ensureExtent(t, f)
			p.Unpin(f)
		}
		return p.Stats().Misses - before
	}
	if n := pass(); n != extents {
		t.Fatalf("first pass loaded %d extents, want %d", n, extents)
	}
	if n := pass(); n != 0 {
		t.Errorf("second pass loaded %d extents, want 0: decoded extents were still charged for their raw bytes", n)
	}
	requireUnpinned(t, p)
}

// checkCharge requires the pool's charge to be the sum of its cached
// frames' charges, never negative, and within the budget whenever
// nothing is pinned.
func checkCharge(t *testing.T, p *Pool, step string) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum int64
	for _, f := range p.frames {
		sum += f.bytes
	}
	if p.used != sum || p.used < 0 {
		t.Errorf("%s: used = %d, frames charged %d", step, p.used, sum)
	}
	if p.pinned == 0 && p.used > p.budget {
		t.Errorf("%s: used = %d over budget %d with nothing pinned", step, p.used, p.budget)
	}
}

// TestPoolChargeInvariant checks the accounting after the paths that
// release or keep an extent's raw charge: a quarantined block, its
// repair, Drop, and concurrent first uses of an extent's last blocks.
func TestPoolChargeInvariant(t *testing.T) {
	const extents = 4
	s, _, floats, codes := openFixtureStore(t, extents*64*25, 25, 4, 52)
	decoded := int64(64*25) * 8
	// Room for every extent as read: the repaired extent stays cached.
	p := NewPool(extents * (extentRawBytes(t, s, colSmooth, 0) + decoded))
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	charge := func(x int) int64 {
		t.Helper()
		p.mu.Lock()
		defer p.mu.Unlock()
		f, ok := p.frames[frameKey{store: s, col: colSmooth, extent: int32(x)}]
		if !ok {
			t.Fatalf("extent %d is not cached", x)
		}
		return f.bytes
	}
	scan := func(x int) {
		t.Helper()
		f, err := p.PinFloat(s, colSmooth, x*64)
		if err != nil {
			t.Fatal(err)
		}
		for b := f.first; b < f.first+f.n; b++ {
			f.Ensure(b) // a quarantined block fails; the rest are ready
		}
		p.Unpin(f)
	}

	s.SetFault(func(col, block, attempt int) error {
		if col == colSmooth && block == 5 {
			return errors.New("injected")
		}
		return nil
	})
	scan(0)
	if got, want := charge(0), extentRawBytes(t, s, colSmooth, 0)+decoded; got != want {
		t.Errorf("extent with a quarantined block charged %d, want %d", got, want)
	}
	checkCharge(t, p, "quarantined block")
	scan(1)
	checkCharge(t, p, "next extent")

	s.SetFault(nil)
	if n := p.ClearQuarantine(s); n != 1 {
		t.Fatalf("ClearQuarantine removed %d, want 1", n)
	}
	checkBlock(t, p, s, colSmooth, 5, floats, codes)
	if got := charge(0); got != decoded {
		t.Errorf("extent repaired to every block ready charged %d, want %d (decoded only)", got, decoded)
	}
	checkCharge(t, p, "re-read after ClearQuarantine")
	scan(2)
	checkCharge(t, p, "after the re-read, next extent")

	// Eight goroutines race to first-use the last eight blocks of one
	// pinned extent: the raw charge is returned once.
	f, err := p.PinFloat(s, colSmooth, 3*64)
	if err != nil {
		t.Fatal(err)
	}
	for b := 3 * 64; b < 3*64+56; b++ {
		if err := f.Ensure(b); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range 8 {
				b := 3*64 + 56 + (g+i)%8
				if err := f.Ensure(b); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	checkCharge(t, p, "racing last blocks (pinned)")
	if got := charge(3); got != decoded {
		t.Errorf("extent charged %d after the race, want %d (decoded only)", got, decoded)
	}
	p.Unpin(f)
	checkCharge(t, p, "racing last blocks")
	for b := 3*64 + 56; b < 4*64; b++ {
		checkBlock(t, p, s, colSmooth, b, floats, codes)
	}
	if err := p.Drop(s); err != nil {
		t.Fatal(err)
	}
	checkCharge(t, p, "Drop")
	if used := p.Stats().UsedBytes; used != 0 {
		t.Errorf("UsedBytes = %d after Drop, want 0", used)
	}
	requireUnpinned(t, p)
}

// TestPoolExtentEdges reads every block of every column through the
// pool, bit-exact against the written data, over the shapes where the
// extent arithmetic has an edge: a block count that is not a multiple
// of the extent, a partial last block, a block as large as an extent
// (one block per extent), and a budget smaller than one extent. Blocks are visited from a start in the
// middle of an extent, wrapping around, as a scan's cursor does.
func TestPoolExtentEdges(t *testing.T) {
	for _, c := range []struct {
		name            string
		rows, blockSize int
		budget          int64
	}{
		{"blocks not a multiple of the extent", 150 * 25, 25, 1 << 20},
		{"partial last block", 130*25 + 7, 25, 1 << 20},
		{"exactly two extents", 128 * 25, 25, 1 << 20},
		{"one block per extent", 5*2048 + 100, 2048, 1 << 20},
		{"fewer blocks than one extent", 10 * 25, 25, 1 << 20},
		{"budget smaller than one extent", 150 * 25, 25, 1000},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(c.rows), 3))
			meta, floats, codes := buildFixture(rng, c.rows, c.blockSize, 6)
			data := writeFixture(t, meta, floats, codes)
			path := filepath.Join(t.TempDir(), "edge.ffs")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			p := NewPool(c.budget)
			defer p.Close()

			nb, n := meta.NumBlocks(), s.ExtentBlocks()
			start := min(n/2+1, nb-1)
			for v := 0; v < nb; v++ {
				b := (start + v) % nb
				for ci := range meta.Cols {
					checkBlock(t, p, s, ci, b, floats, codes)
				}
			}
			st := p.Stats()
			extents := int64((nb + n - 1) / n)
			wantLoads := 3 * extents
			if c.budget < 1<<20 {
				wantLoads = 3 * int64(nb) // nothing unpinned survives: every pin reads
			}
			if st.Misses != wantLoads {
				t.Errorf("misses = %d, want %d (%d extents, %d blocks, 3 columns)", st.Misses, wantLoads, extents, nb)
			}
			if c.budget < 1<<20 && st.UsedBytes != 0 {
				t.Errorf("UsedBytes = %d with nothing pinned and a budget below one extent", st.UsedBytes)
			}
			requireUnpinned(t, p)
		})
	}
}

// TestPoolFaultIsolation damages one block inside an extent — a flipped
// byte on disk, then an injected read fault — and requires the failure,
// the retries and the quarantine to be that block's alone: the pin of
// it fails with a BlockError naming it, its neighbours in the same
// extent (same frame, same single read) stay bit-exact.
func TestPoolFaultIsolation(t *testing.T) {
	path, _, floats, codes := writeFixtureFile(t, 3000, 25, 6, 31) // 120 blocks: extents 0..63, 64..119
	probe, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off := probe.dir[colSmooth].offs[70] + int64(probe.dir[colSmooth].lens[70])/2
	probe.Close()
	flipByte(t, path, off)

	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := NewPool(1 << 20)
	defer p.Close()
	var slept int
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
		Sleep: func(time.Duration) { slept++ }})
	var hits []int
	s.SetFault(func(col, block, attempt int) error {
		if col == colNoisy && block == 5 {
			hits = append(hits, attempt)
			if attempt < 2 {
				return errors.New("injected transient fault")
			}
		}
		return nil
	})

	// The flipped byte: checksum failure on every attempt, quarantine.
	_, err = p.PinFloat(s, colSmooth, 70)
	var be *BlockError
	if !errors.As(err, &be) || be.Kind != ErrChecksum || be.Col != colSmooth || be.Block != 70 {
		t.Fatalf("pin of the damaged block: %v, want a checksum BlockError at col %d block 70", err, colSmooth)
	}
	st := p.Stats()
	if st.ChecksumFailures != 3 || st.Retries != 2 || st.QuarantinedBlocks != 1 || slept != 2 {
		t.Fatalf("after the damaged block: %+v, slept %d; want 3 checksum failures, 2 retries, 1 quarantined", st, slept)
	}
	if st.PinnedFrames != 0 {
		t.Fatalf("a failed pin left %d extents pinned", st.PinnedFrames)
	}
	reads := s.Reads()
	if _, err := p.PinFloat(s, colSmooth, 70); !errors.As(err, &be) || be.Block != 70 {
		t.Fatalf("second pin of the quarantined block: %v", err)
	}
	if s.Reads() != reads {
		t.Error("pin of a quarantined block read again")
	}
	for b := 64; b < 120; b++ {
		if b != 70 {
			checkBlock(t, p, s, colSmooth, b, floats, codes)
		}
	}
	if s.Reads() != reads {
		t.Error("the damaged block's neighbours were not served from its extent")
	}

	// The injected fault: attempts 0 and 1 fail, attempt 2 heals; the
	// hook sees (col, block, attempt) exactly as for a per-block read.
	checkBlock(t, p, s, colNoisy, 5, floats, codes)
	if len(hits) != 3 || hits[0] != 0 || hits[1] != 1 || hits[2] != 2 {
		t.Errorf("fault hook attempts = %v, want [0 1 2]", hits)
	}
	for b := 0; b < 64; b++ {
		checkBlock(t, p, s, colNoisy, b, floats, codes)
	}
	st = p.Stats()
	if st.IOErrors != 2 || st.Retries != 4 || st.QuarantinedBlocks != 1 {
		t.Errorf("after the healed block: %+v; want 2 I/O errors, 4 retries, still 1 quarantined", st)
	}

	// Lifting the quarantine retries the block from disk, not from the
	// bad bytes the resident extent still holds.
	flipByte(t, path, off)
	if removed := p.ClearQuarantine(s); removed != 1 {
		t.Fatalf("ClearQuarantine removed %d, want 1", removed)
	}
	checkBlock(t, p, s, colSmooth, 70, floats, codes)
	if st := p.Stats(); st.ChecksumFailures != 3 || st.QuarantinedBlocks != 0 {
		t.Errorf("after repair: %+v; want no new checksum failure, none quarantined", st)
	}
	requireUnpinned(t, p)
}

// TestPoolExtentReadFallback covers the extents that cannot be read in
// one piece — a directory whose segments are out of order, a read that
// fails outright — which fall back to block-by-block reads where each
// failure is one block's.
func TestPoolExtentReadFallback(t *testing.T) {
	// A file with two directory entries of the first column swapped and
	// the directory's checksum recomputed: each block still reads its
	// own bytes, but the column is no longer one ascending run.
	rng := rand.New(rand.NewPCG(27, 28))
	meta, floats, codes := buildFixture(rng, 500, 25, 4)
	data := writeFixture(t, meta, floats, codes)
	nb := meta.NumBlocks()
	dirLen := len(meta.Cols) * nb * 12
	dir := data[binary.LittleEndian.Uint64(data[len(data)-12:]):] // col 0: nb offsets, then nb lengths
	swap := func(p []byte, w int) {
		tmp := append([]byte(nil), p[3*w:4*w]...)
		copy(p[3*w:4*w], p[4*w:5*w])
		copy(p[4*w:5*w], tmp)
	}
	swap(dir, 8)
	swap(dir[8*nb:], 4)
	binary.LittleEndian.PutUint32(dir[dirLen:], crc32.Checksum(dir[:dirLen], castagnoli))
	path := filepath.Join(t.TempDir(), "swapped.ffs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := NewPool(1 << 20)
	defer p.Close()
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	if _, _, ok := s.extentSpan(colSmooth, 0, 20); ok {
		t.Fatal("extentSpan accepted an out-of-order directory")
	}
	if _, _, ok := s.extentSpan(colNoisy, 0, 20); !ok {
		t.Fatal("extentSpan refused an intact column")
	}
	f, err := p.PinFloat(s, colSmooth, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := f.FloatBlock(3)
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(floats[colSmooth][4*25+i]) {
			t.Fatalf("swapped block row %d differs", i)
		}
	}
	p.Unpin(f)
	checkBlock(t, p, s, colSmooth, 7, floats, codes)

	// A closed file: the extent read fails, then every block's own read.
	used := p.Stats().UsedBytes
	s.Close()
	_, err = p.PinFloat(s, colNoisy, 2)
	var be *BlockError
	if !errors.As(err, &be) || be.Kind != ErrIO || be.Col != colNoisy || be.Block != 2 {
		t.Fatalf("pin on a closed store: %v, want an I/O BlockError at col %d block 2", err, colNoisy)
	}
	if err := p.Drop(s); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.UsedBytes != 0 || st.QuarantinedBlocks != 0 || used == 0 {
		t.Errorf("after Drop: %+v (used before: %d)", st, used)
	}
	requireUnpinned(t, p)
}

// TestPoolDrop checks that dropping a store returns its budget and its
// quarantine entries, refuses (and reports) extents still pinned, and
// that the same path opened again never sees a frame of its former
// self.
func TestPoolDrop(t *testing.T) {
	path, _, floats, codes := writeFixtureFile(t, 3000, 25, 6, 41)
	other, _, ofloats, ocodes := openFixtureStore(t, 500, 25, 4, 42)
	p := NewPool(1 << 20)
	defer p.Close()
	checkBlock(t, p, other, colSmooth, 1, ofloats, ocodes)
	base := p.Stats()

	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	s.SetFault(func(col, block, attempt int) error {
		if block == 9 {
			return errors.New("injected")
		}
		return nil
	})
	for _, b := range []int{0, 64, 100} {
		checkBlock(t, p, s, colSmooth, b, floats, codes)
		checkBlock(t, p, s, colCat, b, floats, codes)
	}
	if _, err := p.PinFloat(s, colNoisy, 9); err == nil {
		t.Fatal("injected fault did not fail the pin")
	}
	held, err := p.PinFloat(s, colNoisy, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.UsedBytes <= base.UsedBytes || st.QuarantinedBlocks != 1 {
		t.Fatalf("before Drop: %+v", st)
	}

	if err := p.Drop(s); err == nil {
		t.Error("Drop with a pinned extent reported no error")
	}
	if st := p.Stats(); st.QuarantinedBlocks != 0 || st.PinnedFrames != 1 {
		t.Errorf("after the refused Drop: %+v; want quarantine cleared, the pinned extent kept", st)
	}
	p.Unpin(held)
	if err := p.Drop(s); err != nil {
		t.Errorf("Drop with nothing pinned: %v", err)
	}
	if st := p.Stats(); st.UsedBytes != base.UsedBytes {
		t.Errorf("UsedBytes = %d after Drop, want %d (the other store's)", st.UsedBytes, base.UsedBytes)
	}
	s.Close()

	// Rewrite the file with other data under the same path and open it
	// again: every read must see the new bytes.
	rng := rand.New(rand.NewPCG(99, 100))
	meta2, floats2, codes2 := buildFixture(rng, 3000, 25, 6)
	if err := os.WriteFile(path, writeFixture(t, meta2, floats2, codes2), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, b := range []int{0, 9, 64, 100} {
		for ci := range meta2.Cols {
			checkBlock(t, p, s2, ci, b, floats2, codes2)
		}
	}
	hits := p.Stats().Hits
	checkBlock(t, p, other, colSmooth, 1, ofloats, ocodes)
	if p.Stats().Hits != hits+1 {
		t.Error("Drop evicted another store's extent")
	}
	requireUnpinned(t, p)
}
