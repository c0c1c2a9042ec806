package blockstore

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// TestCatBlockRoundTrip drives the cat codecs over shapes that force
// every encoding: runs (RLE), small-dictionary noise (bit-packing),
// wide random codes (raw), and partial blocks.
func TestCatBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	cases := map[string]func(n int) []uint32{
		"runs": func(n int) []uint32 {
			out := make([]uint32, 0, n)
			for len(out) < n {
				c := rng.Uint32N(5)
				run := 1 + int(rng.Uint32N(10))
				for i := 0; i < run && len(out) < n; i++ {
					out = append(out, c)
				}
			}
			return out
		},
		"small-dict-noise": func(n int) []uint32 {
			out := make([]uint32, n)
			for i := range out {
				out[i] = rng.Uint32N(7)
			}
			return out
		},
		"wide-random": func(n int) []uint32 {
			out := make([]uint32, n)
			for i := range out {
				out[i] = rng.Uint32()
			}
			return out
		},
		"all-zero": func(n int) []uint32 { return make([]uint32, n) },
		"single-value": func(n int) []uint32 {
			out := make([]uint32, n)
			for i := range out {
				out[i] = 123456
			}
			return out
		},
	}
	for name, gen := range cases {
		for _, n := range []int{1, 7, 25, 64, 1000} {
			codes := gen(n)
			enc := AppendCatBlock(nil, codes)
			dec, err := DecodeCatBlock(enc, nil, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if len(dec) != n {
				t.Fatalf("%s n=%d: decoded %d codes", name, n, len(dec))
			}
			for i := range codes {
				if dec[i] != codes[i] {
					t.Fatalf("%s n=%d: code %d = %d, want %d", name, n, i, dec[i], codes[i])
				}
			}
		}
	}
}

// TestFloatBlockRoundTrip checks bit-exact float round-trips across
// constant, smooth (xor-compressible) and adversarial bit patterns.
func TestFloatBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	cases := map[string]func(n int) []float64{
		"constant": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = -17.25
			}
			return out
		},
		"smooth": func(n int) []float64 {
			out := make([]float64, n)
			v := 1000.0
			for i := range out {
				v += rng.Float64()
				out[i] = v
			}
			return out
		},
		"random-bits": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				// Arbitrary finite bit patterns, including negatives and
				// denormals.
				for {
					v := math.Float64frombits(rng.Uint64())
					if !math.IsNaN(v) && !math.IsInf(v, 0) {
						out[i] = v
						break
					}
				}
			}
			return out
		},
		"negatives-and-zeros": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				switch i % 3 {
				case 0:
					out[i] = 0
				case 1:
					out[i] = math.Copysign(0, -1)
				default:
					out[i] = -float64(i)
				}
			}
			return out
		},
	}
	for name, gen := range cases {
		for _, n := range []int{1, 7, 25, 64, 1000} {
			vals := gen(n)
			enc := AppendFloatBlock(nil, vals)
			dec, err := DecodeFloatBlock(enc, nil, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if len(dec) != n {
				t.Fatalf("%s n=%d: decoded %d values", name, n, len(dec))
			}
			for i := range vals {
				if math.Float64bits(dec[i]) != math.Float64bits(vals[i]) {
					t.Fatalf("%s n=%d: value %d = %x, want %x", name, n, i,
						math.Float64bits(dec[i]), math.Float64bits(vals[i]))
				}
			}
		}
	}
}

// TestEncodingWins pins the encoding chooser: runs compress via RLE,
// small dictionaries via bit-packing, smooth floats via xor deltas,
// constants via the const segment.
func TestEncodingWins(t *testing.T) {
	runs := make([]uint32, 100)
	for i := range runs {
		runs[i] = uint32(i / 50)
	}
	if enc := AppendCatBlock(nil, runs); enc[0] != encCatRLE {
		t.Errorf("run block encoded as 0x%02x, want RLE", enc[0])
	} else if len(enc) > 10 {
		t.Errorf("RLE of 2 runs took %d bytes", len(enc))
	}

	noise := make([]uint32, 100)
	for i := range noise {
		noise[i] = uint32(i % 7)
	}
	if enc := AppendCatBlock(nil, noise); enc[0] != encCatPacked {
		t.Errorf("small-dict noise encoded as 0x%02x, want packed", enc[0])
	} else if len(enc) > 2+100*3/8+1 {
		t.Errorf("3-bit packing of 100 codes took %d bytes", len(enc))
	}

	smooth := make([]float64, 100)
	for i := range smooth {
		smooth[i] = 100.0 + float64(i)
	}
	if enc := AppendFloatBlock(nil, smooth); enc[0] != encFloatXor {
		t.Errorf("smooth floats encoded as 0x%02x, want xor", enc[0])
	} else if len(enc) >= 800 {
		t.Errorf("xor encoding did not compress: %d bytes", len(enc))
	}

	konst := make([]float64, 100)
	if enc := AppendFloatBlock(nil, konst); enc[0] != encFloatConst || len(enc) != 9 {
		t.Errorf("constant block: enc=0x%02x len=%d, want const/9", enc[0], len(enc))
	}
}

// TestDecodeCorrupt checks decoders reject truncated and malformed
// segments instead of panicking or over-reading.
func TestDecodeCorrupt(t *testing.T) {
	good := AppendCatBlock(nil, []uint32{1, 2, 3, 4, 5})
	if _, err := DecodeCatBlock(good[:len(good)-2], nil, 5); err == nil {
		t.Error("truncated cat segment decoded without error")
	}
	if _, err := DecodeCatBlock([]byte{0x7f, 1, 2}, nil, 2); err == nil {
		t.Error("unknown cat encoding decoded without error")
	}
	goodF := AppendFloatBlock(nil, []float64{1.5, 2.5, 3.5})
	if _, err := DecodeFloatBlock(goodF[:len(goodF)-3], nil, 3); err == nil {
		t.Error("truncated float segment decoded without error")
	}
	if _, err := DecodeFloatBlock(nil, nil, 1); err == nil {
		t.Error("empty float segment decoded without error")
	}
	// RLE run overflowing the block must error, not write past n.
	rle := []byte{encCatRLE, 1, 200}
	if _, err := DecodeCatBlock(rle, nil, 5); err == nil {
		t.Error("overlong RLE run decoded without error")
	}
}

// TestDecodeCatCodePastDictionary: each encoding, at the dictionary
// sizes that put its largest code just inside and just outside, decodes
// the block or refuses it naming the code — the width-bounded packed
// case and the all-zero block of an empty dictionary included.
func TestDecodeCatCodePastDictionary(t *testing.T) {
	for _, tc := range []struct {
		name   string
		codes  []uint32
		enc    byte
		bad    uint32 // the code decodeCatBlock names when dictLen is top
		top    uint64 // the smallest dictionary that holds every code
		narrow uint64 // a dictionary at least as wide as the packed width, or 0
	}{
		{"raw", []uint32{1 << 28, 5, 1<<28 + 7, 3}, encCatRaw, 1<<28 + 7, 1<<28 + 8, 0},
		{"rle", slices.Concat(slices.Repeat([]uint32{9}, 16), slices.Repeat([]uint32{2}, 16)), encCatRLE, 9, 10, 0},
		{"packed", []uint32{0, 5, 1, 6, 2, 4, 3, 5, 0, 6, 1, 2}, encCatPacked, 6, 7, 8},
		{"all zero", []uint32{0, 0, 0}, encCatPacked, 0, 1, 1},
	} {
		seg := AppendCatBlock(nil, tc.codes)
		if seg[0] != tc.enc {
			t.Fatalf("%s: encoded as 0x%02x, want 0x%02x", tc.name, seg[0], tc.enc)
		}
		n := len(tc.codes)
		for _, dictLen := range []uint64{tc.top, tc.narrow} {
			if dictLen == 0 {
				continue
			}
			if _, err := decodeCatBlock(seg, nil, n, dictLen); err != nil {
				t.Errorf("%s: dictionary of %d refused the block: %v", tc.name, dictLen, err)
			}
		}
		_, err := decodeCatBlock(seg, nil, n, tc.top-1)
		if want := fmt.Sprintf("code %d out of dictionary range %d", tc.bad, tc.top-1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: dictionary of %d: %v, want %q", tc.name, tc.top-1, err, want)
		}
	}
}
