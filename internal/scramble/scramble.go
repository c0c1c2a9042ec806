// Package scramble implements the storage-order substrate of FastFrame:
// a scramble is a copy of a relation whose rows have been permuted
// uniformly at random (Definition 4 of the paper), so that a sequential
// scan of any subset of rows — chosen without knowledge of the data
// order — is a uniform without-replacement sample. The package provides
// the permutation itself, the block layout (the paper uses 25-row
// blocks), and a block cursor that walks the scramble from a random
// starting block with wrap-around, counting fetched blocks.
package scramble

import "math/rand/v2"

// DefaultBlockSize is the paper's block size of 25 rows (§4.3).
const DefaultBlockSize = 25

// Permutation returns a uniformly random permutation of [0, n) drawn
// from rng (Fisher–Yates via rand.Perm).
func Permutation(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// Layout describes the block structure of a scramble.
type Layout struct {
	Rows      int
	BlockSize int
}

// NewLayout returns a layout over rows with the given block size
// (DefaultBlockSize if blockSize ≤ 0).
func NewLayout(rows, blockSize int) Layout {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if rows < 0 {
		rows = 0
	}
	return Layout{Rows: rows, BlockSize: blockSize}
}

// NumBlocks returns the number of blocks, the last possibly partial.
func (l Layout) NumBlocks() int {
	if l.Rows == 0 {
		return 0
	}
	return (l.Rows + l.BlockSize - 1) / l.BlockSize
}

// BlockBounds returns the half-open row range [start, end) of block b.
func (l Layout) BlockBounds(b int) (start, end int) {
	start = b * l.BlockSize
	end = start + l.BlockSize
	if end > l.Rows {
		end = l.Rows
	}
	return start, end
}

// RowsIn returns the number of rows in blocks [b, b+n).
func (l Layout) RowsIn(b, n int) int {
	return min((b+n)*l.BlockSize, l.Rows) - min(b*l.BlockSize, l.Rows)
}

// Cursor walks the blocks of a scramble once, starting at a given block
// and wrapping around, tracking how many blocks were actually fetched
// (the paper's "blocks fetched" metric counts only blocks whose rows
// were read; skipped blocks are free).
type Cursor struct {
	layout  Layout
	start   int
	pos     int
	visited int
	fetched int
}

// NewCursor returns a cursor over the layout beginning at startBlock
// (taken modulo the block count). Each approximate query in the paper
// starts from a random position in the shuffled data.
func NewCursor(layout Layout, startBlock int) *Cursor {
	nb := layout.NumBlocks()
	if nb > 0 {
		startBlock = ((startBlock % nb) + nb) % nb
	} else {
		startBlock = 0
	}
	return &Cursor{layout: layout, start: startBlock, pos: startBlock}
}

// Peek returns the block the walk is at, without advancing, or -1 once
// every block has been visited.
func (c *Cursor) Peek() int {
	if c.visited >= c.layout.NumBlocks() {
		return -1
	}
	return c.pos
}

// Remaining returns how many blocks the walk has yet to visit.
func (c *Cursor) Remaining() int { return c.layout.NumBlocks() - c.visited }

// Advance moves the walk n blocks on. The caller keeps n within
// Remaining and short of the wrap-around.
func (c *Cursor) Advance(n int) {
	c.visited += n
	if c.pos += n; c.pos >= c.layout.NumBlocks() {
		c.pos = 0
	}
}

// AddFetched credits n fetched blocks at once: the engine scans a span
// of blocks at a time and folds its fetch count in when the span ends.
func (c *Cursor) AddFetched(n int) { c.fetched += n }

// BlocksFetched returns the number of blocks read so far.
func (c *Cursor) BlocksFetched() int { return c.fetched }

// Start returns the normalized block the walk began at.
func (c *Cursor) Start() int { return c.start }

// Exhausted reports whether the cursor has walked every block.
func (c *Cursor) Exhausted() bool { return c.visited >= c.layout.NumBlocks() }
