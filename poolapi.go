package fastframe

import (
	"fmt"

	"fastframe/internal/blockstore"
	"fastframe/internal/table"
)

// DefaultPoolBytes is the buffer-pool budget used when none is given:
// 64 MiB of decoded blocks.
const DefaultPoolBytes = blockstore.DefaultPoolBytes

// BufferPool is a shared cache of decoded column blocks for out-of-core
// tables (OpenTable). One pool can back any number of tables; its byte
// budget bounds the decoded blocks held resident (pinned frames — the
// blocks scans are actively reading — are never evicted, so a large
// concurrent working set can temporarily exceed it). Pools are safe for
// concurrent use.
type BufferPool struct {
	p *blockstore.Pool
}

// NewBufferPool returns a pool with the given decoded-byte budget
// (DefaultPoolBytes if budgetBytes ≤ 0).
func NewBufferPool(budgetBytes int64) *BufferPool {
	return &BufferPool{p: blockstore.NewPool(budgetBytes)}
}

// Close stops the pool's background prefetcher. Close only after every
// table using the pool is closed and idle.
func (bp *BufferPool) Close() { bp.p.Close() }

// PoolStats is a snapshot of a buffer pool's counters.
type PoolStats struct {
	// BudgetBytes and UsedBytes are the configured target and the
	// decoded bytes currently cached.
	BudgetBytes int64
	UsedBytes   int64
	// Hits and Misses count block pins served from cache vs loaded from
	// disk; Evictions counts frames dropped under budget pressure;
	// Prefetched counts blocks warmed by the background prefetcher.
	Hits, Misses, Evictions, Prefetched int64
	// BytesRead is the compressed segment bytes physically read.
	BytesRead int64
	// IOErrors and ChecksumFailures count failed block-load attempts by
	// kind; Retries counts backoff retries of transient failures;
	// QuarantinedBlocks counts blocks currently quarantined after
	// permanent failure (pins of those fail fast — or are skipped under
	// WithDegradedReads).
	IOErrors, ChecksumFailures int64
	Retries                    int64
	QuarantinedBlocks          int64
}

func poolStatsFrom(s blockstore.Stats) PoolStats {
	return PoolStats{
		BudgetBytes:       s.BudgetBytes,
		UsedBytes:         s.UsedBytes,
		Hits:              s.Hits,
		Misses:            s.Misses,
		Evictions:         s.Evictions,
		Prefetched:        s.Prefetched,
		BytesRead:         s.BytesRead,
		IOErrors:          s.IOErrors,
		ChecksumFailures:  s.ChecksumFailures,
		Retries:           s.Retries,
		QuarantinedBlocks: s.QuarantinedBlocks,
	}
}

// Stats returns a snapshot of the pool counters.
func (bp *BufferPool) Stats() PoolStats {
	return poolStatsFrom(bp.p.Stats())
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

// Close releases an out-of-core table's underlying file. No queries may
// be in flight. Resident tables have nothing to close; Close is then a
// no-op.
func (t *Table) Close() error { return t.t.Close() }

// PoolStats returns the counters of the buffer pool backing this table,
// or zero stats for a resident table.
func (t *Table) PoolStats() PoolStats {
	p := t.t.Pool()
	if p == nil {
		return PoolStats{}
	}
	return poolStatsFrom(p.Stats())
}
