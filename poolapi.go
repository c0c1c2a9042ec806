package fastframe

import (
	"fmt"

	"fastframe/internal/blockstore"
	"fastframe/internal/table"
)

// DefaultPoolBytes is the buffer-pool budget used when none is given:
// 64 MiB of cached extents.
const DefaultPoolBytes = blockstore.DefaultPoolBytes

// BufferPool is a shared cache of column data for out-of-core tables
// (OpenTable), held in extents: aligned runs of consecutive blocks of
// one column (64 blocks of 25 rows), each read from disk in one piece
// by the scan that needs it, on that scan's goroutine, and pinned by
// the scan for as long as it is inside it. One pool can back any number
// of tables; its byte budget bounds the extents held resident (pinned
// extents — the ones scans are actively reading — are never evicted, so
// a large concurrent working set can temporarily exceed it). Pools are
// safe for concurrent use.
//
// Eviction resists scans: an extent a scan used once is evicted before
// any extent used twice, newest first, so a scan longer than the budget
// recycles its own extents and leaves the ones queries keep coming back
// to — the start of the scramble, for queries that share a seed. The
// price is that concurrent scans, trailing each other through a full
// pool, no longer find each other's extents. Measured on the
// benchmark's ooc_mix request list (an 8 MiB pool, 7 % of the decoded
// table), two concurrent clients miss ≈ 16 extents per query, as one
// client does.
type BufferPool struct {
	p *blockstore.Pool
}

// NewBufferPool returns a pool with the given byte budget
// (DefaultPoolBytes if budgetBytes ≤ 0).
func NewBufferPool(budgetBytes int64) *BufferPool {
	return &BufferPool{p: blockstore.NewPool(budgetBytes)}
}

// Close is a no-op: every read is a scan's own and the pool holds no
// goroutine or file. It stays only because the frozen bench/ package
// calls it.
func (bp *BufferPool) Close() { bp.p.Close() }

// PoolStats is a snapshot of a buffer pool's counters. Its fields are
// blockstore.Stats', in the same order, which is what lets Stats convert
// one into the other.
type PoolStats struct {
	// BudgetBytes and UsedBytes are the configured target and the bytes
	// currently cached: each extent's decoded rows, plus its bytes as
	// read while any of its blocks is still unchecked.
	BudgetBytes int64 `json:"budget_bytes"`
	UsedBytes   int64 `json:"used_bytes"`
	// PinnedFrames is the number of extents scans hold pinned right now;
	// 0 whenever no query is running.
	PinnedFrames int64 `json:"pinned_frames"`
	// Hits counts extent pins served from cache, Misses extents a scan
	// loaded from disk, Evictions extents dropped under budget pressure.
	// A scan pins once per extent per column, not per block, and every
	// extent read is a scan's own pin, so for one sequence of queries
	// these counters and BytesRead come out the same on every run.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// BytesRead is the bytes physically read: whole extents, the
	// segments of blocks a query then prunes or skips included.
	BytesRead int64 `json:"bytes_read"`
	// IOErrors and ChecksumFailures count failed block-load attempts by
	// kind; Retries counts backoff retries of transient failures;
	// QuarantinedBlocks counts blocks currently quarantined after
	// permanent failure (pins of those fail fast — or are skipped under
	// WithDegradedReads). On the wire they are omitted while zero.
	IOErrors          int64 `json:"io_errors,omitempty"`
	ChecksumFailures  int64 `json:"checksum_failures,omitempty"`
	Retries           int64 `json:"retries,omitempty"`
	QuarantinedBlocks int64 `json:"quarantined_blocks,omitempty"`
}

// Stats returns a snapshot of the pool counters.
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats(bp.p.Stats())
}

// OpenTable opens a table file written in format v3 or v4 (Table.WriteTo
// or ffgen -table) out-of-core: header metadata — schema, dictionaries,
// catalog bounds, zone maps, bitmap indexes — loads resident, so
// planning and block pruning work exactly as for in-memory tables,
// while data blocks page through the pool on demand. Queries against an
// out-of-core table return results byte-identical to the fully resident
// table, whatever the pool budget. Close the table when done.
func OpenTable(path string, pool *BufferPool) (*Table, error) {
	if pool == nil {
		return nil, fmt.Errorf("fastframe: OpenTable needs a BufferPool")
	}
	t, err := table.OpenStore(path, pool.p)
	if err != nil {
		return nil, err
	}
	return &Table{t: t}, nil
}

// OutOfCore reports whether the table pages blocks through a buffer
// pool (true, OpenTable) or holds all columns resident (false).
func (t *Table) OutOfCore() bool { return t.t.OutOfCore() }

// Close releases an out-of-core table's underlying file and evicts its
// extents from the buffer pool, returning their budget to the pool's
// other tables. No queries may be in flight: an extent one still holds
// pinned is reported as an error. Resident tables have nothing to
// close; Close is then a no-op.
func (t *Table) Close() error { return t.t.Close() }

// PoolStats returns the counters of the buffer pool backing this table,
// or zero stats for a resident table.
func (t *Table) PoolStats() PoolStats {
	p := t.t.Pool()
	if p == nil {
		return PoolStats{}
	}
	return PoolStats(p.Stats())
}
