package bitmap

// BlockIndex is a block-level bitmap index over one categorical column:
// for each dictionary code it stores the set of blocks containing at
// least one row with that code. This is the index structure FastFrame
// uses for active scanning (§4.3) and for predicate-based block pruning.
type BlockIndex struct {
	perValue  []*Bitset
	numBlocks int
}

// NewBlockIndex builds the index for a column given its per-row codes,
// the number of distinct codes, and the block size in rows.
func NewBlockIndex(codes []uint32, numValues, blockSize int) *BlockIndex {
	if blockSize <= 0 {
		panic("bitmap: non-positive block size")
	}
	numBlocks := (len(codes) + blockSize - 1) / blockSize
	idx := &BlockIndex{perValue: make([]*Bitset, numValues), numBlocks: numBlocks}
	for v := range idx.perValue {
		idx.perValue[v] = NewBitset(numBlocks)
	}
	for i, c := range codes {
		idx.perValue[c].Set(i / blockSize)
	}
	return idx
}

// NewBlockIndexFromWords reconstructs an index from serialized per-code
// bitset words (as produced by Blocks(code).Words()), the form the
// block store persists in its file header so out-of-core opens skip the
// full-column rebuild pass.
func NewBlockIndexFromWords(words [][]uint64, numBlocks int) *BlockIndex {
	idx := &BlockIndex{perValue: make([]*Bitset, len(words)), numBlocks: numBlocks}
	for v, w := range words {
		idx.perValue[v] = NewBitsetFromWords(w, numBlocks)
	}
	return idx
}

// NumBlocks returns the number of blocks covered by the index.
func (ix *BlockIndex) NumBlocks() int { return ix.numBlocks }

// NumValues returns the number of distinct codes indexed.
func (ix *BlockIndex) NumValues() int { return len(ix.perValue) }

// BlockContains reports whether the given block holds at least one row
// with the given code.
func (ix *BlockIndex) BlockContains(block int, code uint32) bool {
	return ix.perValue[code].Get(block)
}

// Blocks returns the bitset of blocks containing the code. The returned
// bitset is owned by the index and must not be modified.
func (ix *BlockIndex) Blocks(code uint32) *Bitset { return ix.perValue[code] }

// UnionBlocks ORs together the block bitsets for the given codes into
// dst (which is reset first). dst must have NumBlocks bits.
func (ix *BlockIndex) UnionBlocks(dst *Bitset, codes []uint32) {
	dst.Reset()
	for _, c := range codes {
		dst.OrInto(ix.perValue[c])
	}
}

// MarkBatch computes, for blocks [start, start+count), whether each
// block contains any of the given codes, writing results into mask
// (mask[i] corresponds to block start+i; mask must have length ≥ count).
// The iteration order is per-code then per-block, the cache-friendly
// one: a code's bitmap stays hot while an entire batch of blocks is
// tested.
func (ix *BlockIndex) MarkBatch(mask []bool, start, count int, codes []uint32) {
	if start+count > ix.numBlocks {
		count = ix.numBlocks - start
	}
	for i := 0; i < count; i++ {
		mask[i] = false
	}
	for _, c := range codes {
		bs := ix.perValue[c]
		for i := 0; i < count; i++ {
			if !mask[i] && bs.Get(start+i) {
				mask[i] = true
			}
		}
	}
}
