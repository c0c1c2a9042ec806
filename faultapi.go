package fastframe

import (
	"errors"

	"fastframe/internal/blockstore"
)

// Fault-tolerance surface: classifying storage failures, verifying
// files offline, and reading per-table fault counters.
//
// Failure taxonomy (see internal/blockstore): every failed block read
// is a *blockstore.BlockError carrying the table label, column, block
// and a kind — "io" (physical read failure, retried with backoff),
// "checksum" (CRC32C mismatch on a format-v4 segment, retried once in
// case the read was torn), "decode" (bytes that don't parse, or a code
// past its dictionary: deterministic, never retried), or "metadata" (a
// block that decodes but holds a code whose block-index bit is clear,
// or a value outside its zone, so planning would skip its rows; only
// ReadTable and VerifyTable, which walk every block, check it). A block
// whose load fails permanently
// is quarantined in the buffer pool: by default any query touching it
// fails with the classified error; WithDegradedReads instead skips it
// with conservatively valid intervals.

// ErrUnsupportedVersion is wrapped by the error ReadTable, OpenTable and
// VerifyTable return for a table file whose format version this build
// does not read. It reads v4 only; a v3 file (v4 without checksums) or
// one in the older v1/v2 layout must be regenerated (`ffgen -table`) or
// rebuilt from its CSV.
var ErrUnsupportedVersion = blockstore.ErrUnsupportedVersion

// StorageFault classifies err as a storage block failure. When err (or
// anything it wraps) is a block error, StorageFault returns the damaged
// block's identity — the table label (registered name or file path),
// column index, block index, and the failure kind ("io", "checksum",
// "decode" or "metadata") — and ok=true.
func StorageFault(err error) (table string, col, block int, kind string, ok bool) {
	var be *blockstore.BlockError
	if !errors.As(err, &be) {
		return "", 0, 0, "", false
	}
	return be.Table, be.Col, be.Block, be.Kind.String(), true
}

// InjectStorageFault installs fn as a fault hook on the table's
// out-of-core store: every physical block read first calls
// fn(col, block, attempt) and treats a non-nil return as an I/O failure
// (retried with backoff, then quarantined like any real fault). This is
// the public face of the chaos-testing seam — use it to rehearse the
// failure modes (structured errors, degraded reads, breaker trips)
// against a healthy file. Passing nil clears the hook. Resident tables
// have no storage to fail; InjectStorageFault reports whether the hook
// was installed.
func (t *Table) InjectStorageFault(fn func(col, block, attempt int) error) bool {
	s := t.t.Store()
	if s == nil {
		return false
	}
	s.SetFault(fn)
	return true
}

// VerifyColumn is one column's integrity report.
type VerifyColumn struct {
	Name string
	// Blocks is the column's total block count; BadBlocks how many
	// failed verification.
	Blocks, BadBlocks int
	// BadBlockIDs lists damaged block indices (capped; BadBlocks is the
	// true count) and BadBlockErrors the corresponding error strings.
	BadBlockIDs    []int
	BadBlockErrors []string
}

// VerifyReport is the result of VerifyTable.
type VerifyReport struct {
	Path      string
	Version   uint32
	Rows      int
	BlockSize int
	NumBlocks int
	Cols      []VerifyColumn
	// BadBlocks is the total damaged segment count across columns.
	BadBlocks int
}

// OK reports whether every segment verified and decoded.
func (r *VerifyReport) OK() bool { return r.BadBlocks == 0 }

// VerifyTable checks the integrity of a table file offline: the header
// and footer are checksummed at open, and a float column's catalog
// bounds must contain every block's zone. Then every data segment is
// read, CRC-verified and fully decoded, each categorical code held to
// its column's dictionary, exactly as a query reads it. Last, a code
// whose block-index bit is clear, or a float value outside its block's
// zone (NaN included), is a "metadata" fault: planning would skip its
// rows. A file in any format but v4 fails with ErrUnsupportedVersion,
// and header or footer damage, catalog bounds included, fails the open;
// both return an error with a nil report.
// Otherwise the report lists every damaged segment per column — inspect
// OK(). This is the engine behind `ffgen -verify`.
func VerifyTable(path string) (*VerifyReport, error) {
	rep, err := blockstore.Verify(path)
	if err != nil {
		return nil, err
	}
	out := &VerifyReport{
		Path:      rep.Path,
		Version:   rep.Version,
		Rows:      rep.Rows,
		BlockSize: rep.BlockSize,
		NumBlocks: rep.NumBlocks,
		BadBlocks: rep.BadBlocks,
		Cols:      make([]VerifyColumn, len(rep.Cols)),
	}
	for i, c := range rep.Cols {
		vc := VerifyColumn{Name: c.Name, Blocks: c.Blocks, BadBlocks: c.BadBlocks, BadBlockIDs: c.BadBlockIDs}
		for _, e := range c.Errors {
			vc.BadBlockErrors = append(vc.BadBlockErrors, e.Error())
		}
		out.Cols[i] = vc
	}
	return out, nil
}

// TableStorageStats is one out-of-core table's storage fault counters.
type TableStorageStats struct {
	// Table is the registered name; Version the on-disk format version,
	// always 4.
	Table   string `json:"table"`
	Version uint32 `json:"format_version"`
	// IOErrors and ChecksumFailures count failed physical reads by kind
	// (decode failures count as checksum failures); Retries counts
	// buffer-pool backoff retries; QuarantinedBlocks counts permanent
	// quarantine decisions against this table.
	IOErrors          int64 `json:"io_errors"`
	ChecksumFailures  int64 `json:"checksum_failures"`
	Retries           int64 `json:"retries"`
	QuarantinedBlocks int64 `json:"quarantined_blocks"`
	// LastFaultUnixNano is the wall-clock time of the most recent fault
	// (0 if none) — the serving layer's circuit breaker ages on it. It
	// is not encoded.
	LastFaultUnixNano int64 `json:"-"`
}

// Faulty reports whether the table has recorded any storage fault.
func (s TableStorageStats) Faulty() bool {
	return s.IOErrors > 0 || s.ChecksumFailures > 0 || s.QuarantinedBlocks > 0
}
