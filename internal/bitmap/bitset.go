// Package bitmap provides bitsets and the block-level bitmap indexes
// FastFrame uses to skip blocks during active scanning (§4.3 of the
// paper): for each value of a categorical column, a bitset records which
// storage blocks contain at least one row with that value. Queries with
// GROUP BY consult these indexes to fetch only blocks containing tuples
// of still-active groups.
package bitmap

const wordBits = 64

// Bitset is a fixed-size set of bit positions [0, Len).
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a Bitset able to hold n bits, all clear.
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic("bitmap: negative bitset size")
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the bitset capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// OrInto ORs other into b. Both bitsets must have the same length.
func (b *Bitset) OrInto(other *Bitset) {
	if other.n != b.n {
		panic("bitmap: OrInto length mismatch")
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// AndInto ANDs other into b. Both bitsets must have the same length.
func (b *Bitset) AndInto(other *Bitset) {
	if other.n != b.n {
		panic("bitmap: AndInto length mismatch")
	}
	for i, w := range other.words {
		b.words[i] &= w
	}
}

// Reset clears every bit.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Words exposes the backing words (bit i lives in words[i/64]) for
// serialization. The slice is owned by the bitset and must not be
// modified.
func (b *Bitset) Words() []uint64 { return b.words }

// NewBitsetFromWords reconstructs a bitset of n bits from serialized
// words. The slice is copied; bits beyond n in the last word are
// cleared, so a reader of whole words sees only the n bits.
func NewBitsetFromWords(words []uint64, n int) *Bitset {
	if len(words) != (n+wordBits-1)/wordBits {
		panic("bitmap: word count does not match bit length")
	}
	b := &Bitset{words: append([]uint64(nil), words...), n: n}
	if tail := n % wordBits; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(tail)) - 1
	}
	return b
}

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}
