// Package blockstore implements FastFrame's out-of-core column
// storage: the versioned on-disk format (v4, and v3 before checksums)
// that stores every column block-granularly as independently
// addressable compressed segments, and the shared buffer pool that
// pages them in and out of memory under a byte budget, an extent — a
// run of consecutive blocks of one column — at a time.
//
// The scramble's sampling access pattern is unusually friendly to
// paging: zone maps and block bitmap indexes live in the file header,
// so predicate pruning and active-scan skipping never touch a data
// segment.
package blockstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Per-block segment encodings. A segment's first byte names its
// encoding; the remainder is the payload. All encodings are lossless —
// decoded blocks are bit-identical to the written values, so results
// over an out-of-core table match the fully resident run byte for byte.
const (
	// encCatRaw stores each dictionary code as a little-endian uint32.
	encCatRaw = 0x01
	// encCatRLE stores (code, runLength) uvarint pairs — wins on sorted
	// or low-cardinality blocks.
	encCatRLE = 0x02
	// encCatPacked bit-packs codes at the narrowest width covering the
	// block's maximum code (one leading width byte) — wins on
	// high-entropy blocks with small dictionaries.
	encCatPacked = 0x03
	// encFloatRaw stores each value as its IEEE-754 bits, little-endian.
	encFloatRaw = 0x11
	// encFloatXor stores the first value raw, then the XOR of each
	// value's bits with its predecessor's as a uvarint: neighboring
	// values of similar magnitude share sign, exponent and high mantissa
	// bits, leaving the XOR small as an integer.
	encFloatXor = 0x12
	// encFloatConst stores a single value covering the whole block.
	encFloatConst = 0x13
)

// AppendCatBlock appends the smallest encoding of a block of dictionary
// codes to dst and returns the extended slice.
func AppendCatBlock(dst []byte, codes []uint32) []byte {
	if len(codes) == 0 {
		return append(dst, encCatRaw)
	}
	// Candidate sizes: raw is the fallback ceiling.
	rawSize := 4 * len(codes)

	// RLE: runs of equal codes.
	rleSize, runs := 0, 0
	{
		i := 0
		for i < len(codes) {
			j := i + 1
			for j < len(codes) && codes[j] == codes[i] {
				j++
			}
			rleSize += uvarintLen(uint64(codes[i])) + uvarintLen(uint64(j-i))
			runs++
			i = j
		}
	}

	// Bit-packing at the width of the block's max code.
	maxCode := uint32(0)
	for _, c := range codes {
		if c > maxCode {
			maxCode = c
		}
	}
	width := bits.Len32(maxCode) // 0 for an all-zero block
	packedSize := 1 + (len(codes)*width+7)/8

	switch {
	case rleSize <= packedSize && rleSize < rawSize:
		dst = append(dst, encCatRLE)
		i := 0
		for i < len(codes) {
			j := i + 1
			for j < len(codes) && codes[j] == codes[i] {
				j++
			}
			dst = binary.AppendUvarint(dst, uint64(codes[i]))
			dst = binary.AppendUvarint(dst, uint64(j-i))
			i = j
		}
		return dst
	case packedSize < rawSize:
		dst = append(dst, encCatPacked, byte(width))
		var acc uint64
		nbits := 0
		for _, c := range codes {
			acc |= uint64(c) << nbits
			nbits += width
			for nbits >= 8 {
				dst = append(dst, byte(acc))
				acc >>= 8
				nbits -= 8
			}
		}
		if nbits > 0 {
			dst = append(dst, byte(acc))
		}
		return dst
	default:
		dst = append(dst, encCatRaw)
		for _, c := range codes {
			dst = binary.LittleEndian.AppendUint32(dst, c)
		}
		return dst
	}
}

// DecodeCatBlock decodes a segment written by AppendCatBlock into dst
// (reusing its backing array), which must have capacity for n codes.
func DecodeCatBlock(src []byte, dst []uint32, n int) ([]uint32, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("blockstore: empty cat segment")
	}
	dst = dst[:0]
	enc, payload := src[0], src[1:]
	switch enc {
	case encCatRaw:
		if len(payload) < 4*n {
			return nil, fmt.Errorf("blockstore: raw cat segment truncated: %d bytes for %d codes", len(payload), n)
		}
		for i := 0; i < n; i++ {
			dst = append(dst, binary.LittleEndian.Uint32(payload[4*i:]))
		}
	case encCatRLE:
		for len(dst) < n {
			code, k := binary.Uvarint(payload)
			if k <= 0 {
				return nil, fmt.Errorf("blockstore: corrupt RLE code")
			}
			payload = payload[k:]
			run, k := binary.Uvarint(payload)
			if k <= 0 {
				return nil, fmt.Errorf("blockstore: corrupt RLE run length")
			}
			payload = payload[k:]
			if code > math.MaxUint32 || run == 0 || int(run) > n-len(dst) {
				return nil, fmt.Errorf("blockstore: corrupt RLE pair (code=%d run=%d)", code, run)
			}
			for i := uint64(0); i < run; i++ {
				dst = append(dst, uint32(code))
			}
		}
	case encCatPacked:
		if len(payload) < 1 {
			return nil, fmt.Errorf("blockstore: packed cat segment missing width")
		}
		width := int(payload[0])
		payload = payload[1:]
		if width > 32 {
			return nil, fmt.Errorf("blockstore: packed cat width %d", width)
		}
		if width == 0 {
			for i := 0; i < n; i++ {
				dst = append(dst, 0)
			}
			break
		}
		if len(payload) < (n*width+7)/8 {
			return nil, fmt.Errorf("blockstore: packed cat segment truncated")
		}
		var acc uint64
		nbits, pos := 0, 0
		mask := uint64(1)<<width - 1
		for i := 0; i < n; i++ {
			for nbits < width {
				acc |= uint64(payload[pos]) << nbits
				pos++
				nbits += 8
			}
			dst = append(dst, uint32(acc&mask))
			acc >>= width
			nbits -= width
		}
	default:
		return nil, fmt.Errorf("blockstore: unknown cat encoding 0x%02x", enc)
	}
	return dst, nil
}

// AppendFloatBlock appends the smallest encoding of a block of float
// values to dst and returns the extended slice.
func AppendFloatBlock(dst []byte, vals []float64) []byte {
	if len(vals) == 0 {
		return append(dst, encFloatRaw)
	}
	const0 := math.Float64bits(vals[0])
	allConst := true
	xorSize := 8
	prev := const0
	for _, v := range vals[1:] {
		b := math.Float64bits(v)
		if b != const0 {
			allConst = false
		}
		xorSize += uvarintLen(b ^ prev)
		prev = b
	}
	rawSize := 8 * len(vals)
	switch {
	case allConst:
		dst = append(dst, encFloatConst)
		return binary.LittleEndian.AppendUint64(dst, const0)
	case xorSize < rawSize:
		dst = append(dst, encFloatXor)
		dst = binary.LittleEndian.AppendUint64(dst, const0)
		prev = const0
		for _, v := range vals[1:] {
			b := math.Float64bits(v)
			dst = binary.AppendUvarint(dst, b^prev)
			prev = b
		}
		return dst
	default:
		dst = append(dst, encFloatRaw)
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		return dst
	}
}

// DecodeFloatBlock decodes a segment written by AppendFloatBlock into
// dst (reusing its backing array), which must have capacity for n
// values.
func DecodeFloatBlock(src []byte, dst []float64, n int) ([]float64, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("blockstore: empty float segment")
	}
	dst = dst[:0]
	enc, payload := src[0], src[1:]
	switch enc {
	case encFloatRaw:
		if len(payload) < 8*n {
			return nil, fmt.Errorf("blockstore: raw float segment truncated: %d bytes for %d values", len(payload), n)
		}
		for i := 0; i < n; i++ {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:])))
		}
	case encFloatConst:
		if len(payload) < 8 {
			return nil, fmt.Errorf("blockstore: const float segment truncated")
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(payload))
		for i := 0; i < n; i++ {
			dst = append(dst, v)
		}
	case encFloatXor:
		if len(payload) < 8 {
			return nil, fmt.Errorf("blockstore: xor float segment missing seed")
		}
		prev := binary.LittleEndian.Uint64(payload)
		payload = payload[8:]
		dst = append(dst, math.Float64frombits(prev))
		for len(dst) < n {
			x, k := binary.Uvarint(payload)
			if k <= 0 {
				return nil, fmt.Errorf("blockstore: corrupt xor delta")
			}
			payload = payload[k:]
			prev ^= x
			dst = append(dst, math.Float64frombits(prev))
		}
	default:
		return nil, fmt.Errorf("blockstore: unknown float encoding 0x%02x", enc)
	}
	return dst, nil
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
