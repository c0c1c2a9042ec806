package blockstore

import "fmt"

// ErrKind classifies a block read failure: what layer detected it and
// therefore what the caller can do about it.
type ErrKind int

const (
	// ErrIO is a physical read failure (pread error, short read,
	// injected fault). Often transient: the pool retries these with
	// backoff before quarantining the block.
	ErrIO ErrKind = iota
	// ErrChecksum is a CRC32C mismatch on a segment: the bytes came
	// back but they are not the bytes written.
	ErrChecksum
	// ErrDecode is a segment that passed its checksum but does not parse
	// as a valid encoding, or holds a categorical code past its column's
	// dictionary — deterministic corruption, never retried.
	ErrDecode
	// ErrMetadata is a block that decodes but holds a code whose
	// block-index bit is clear, or a float value outside its zone, so
	// planning would skip its rows. The readers that walk every block
	// check it — the resident load and the offline verifier — the pool
	// does not.
	ErrMetadata
)

// String names the kind as it appears in error text and stats.
func (k ErrKind) String() string {
	switch k {
	case ErrChecksum:
		return "checksum"
	case ErrDecode:
		return "decode"
	case ErrMetadata:
		return "metadata"
	default:
		return "io"
	}
}

// BlockError is a classified block read failure carrying the exact
// identity of the damaged data: which table (the store's label), which
// column, which block, and what kind of failure. Every error surfaced
// by Store and Pool block reads wraps into one, so callers can route on
// errors.As(err, *BlockError) — the executor's degraded-read mode skips
// exactly these, and the serving layer attributes them to a table's
// circuit breaker.
type BlockError struct {
	// Table is the store's label (the registered table name, or the
	// file path before registration); empty for a sequential read,
	// which has no file name.
	Table string
	// Col and Block locate the damaged segment.
	Col, Block int
	// Kind classifies the failure.
	Kind ErrKind
	// Err is the underlying cause.
	Err error
}

func (e *BlockError) Error() string {
	table := e.Table
	if table != "" {
		table += " "
	}
	return fmt.Sprintf("blockstore: %s error reading %scol %d block %d: %v",
		e.Kind, table, e.Col, e.Block, e.Err)
}

// Unwrap returns the underlying cause.
func (e *BlockError) Unwrap() error { return e.Err }

// FaultFunc is the fault-injection seam: when set on a Store (test
// builds only), every physical segment read of (col, block) at retry
// attempt n first consults the hook; a non-nil return fails the read
// with that error as an ErrIO BlockError. attempt starts at 0 and
// increments across the pool's retries of one load, so a hook can model
// transient faults (fail attempt 0, heal afterwards) as well as
// permanent ones.
type FaultFunc func(col, block, attempt int) error
