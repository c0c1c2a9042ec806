package table_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"fastframe"
	"fastframe/internal/blockstore"
	"fastframe/internal/flights"
)

// TestWriteToDigest freezes the written bytes: the digest was recorded
// from WriteTo at the last commit whose writer still took a version
// parameter (670de12), so the one format left is the v4 that commit
// wrote. A deliberate format change re-records it.
func TestWriteToDigest(t *testing.T) {
	const wantLen, wantSum = 236501, "2fcd91642706caa398e26b043f529c2bb1405d49234667d761748851080d4415"
	tab, err := flights.Generate(flights.Config{Rows: 10000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	n, err := tab.WriteTo(h)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); n != wantLen || got != wantSum {
		t.Errorf("WriteTo wrote %d bytes with SHA-256 %s, want %d and %s", n, got, wantLen, wantSum)
	}
}

// TestV3FixtureReadOnly pins v3 as a format that is no longer read,
// against a file a v3 writer really produced. v3 is v4 without its
// three checksums, so its blocks could only ever be read unverified.
//
// testdata/v3_small.ffsc was written at commit 670de12, the last one
// with a v3 writer, by this test in package table:
//
//	orig := genTable(t, rand.New(rand.NewPCG(3, 3)), 333, 25)
//	var buf bytes.Buffer
//	orig.writeTo(&buf, persistVersionBlocks)
//	os.WriteFile("testdata/v3_small.ffsc", buf.Bytes(), 0o644)
//
// — 333 rows in 14 blocks of 25, three float and two categorical
// columns, one per segment codec. Every reader — resident, out of core,
// the offline verifier and the block store beneath them — must refuse
// it as an unsupported version and name the way back.
func TestV3FixtureReadOnly(t *testing.T) {
	const path = "testdata/v3_small.ffsc"
	v3, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := fastframe.NewBufferPool(1 << 20)
	defer pool.Close()
	_, readErr := fastframe.ReadTable(bytes.NewReader(v3))
	_, openErr := fastframe.OpenTable(path, pool)
	_, verifyErr := fastframe.VerifyTable(path)
	_, storeErr := blockstore.Open(path, blockstore.OpenOptions{})
	for how, err := range map[string]error{"ReadTable": readErr, "OpenTable": openErr, "VerifyTable": verifyErr, "blockstore.Open": storeErr} {
		if !errors.Is(err, fastframe.ErrUnsupportedVersion) || !strings.Contains(err.Error(), "ffgen -table") {
			t.Errorf("%s of the v3 fixture: %v, want ErrUnsupportedVersion naming `ffgen -table`", how, err)
		}
	}
}
