package serve

import (
	"time"

	"fastframe"
)

// Storage-fault circuit breaking. The engine's per-table fault counters
// (io errors, checksum failures, retries, quarantined blocks — see
// fastframe.TableStorageStats) feed a simple per-table breaker: a table
// with any permanently quarantined block, or a burst of repeated faults
// whose last occurrence is still inside the cooldown window, reports
// "degraded"; otherwise "ok". The state is advisory — queries are never
// rejected by it (the default failure mode is already a structured
// per-query error, and degraded reads are an explicit opt-in) — but it
// surfaces through GET /healthz (overall status ok | degraded |
// draining) and the per-table storage section of GET /v1/stats, so
// orchestrators can rotate a replica out before its tenants notice.

// breakerTripFaults is how many lifetime faults a table must accumulate
// before transient (non-quarantine) errors alone read as degraded; a
// single retried-and-healed hiccup stays "ok".
const breakerTripFaults = 3

// breakerCooldown is how long after the last fault a tripped breaker
// keeps reporting degraded. With no new faults it re-closes silently.
const breakerCooldown = 30 * time.Second

// storageBreaker classifies table storage health on an injectable
// clock.
type storageBreaker struct {
	now func() time.Time
}

// classify returns "degraded" or "ok" for one table's counters.
func (b storageBreaker) classify(ts fastframe.TableStorageStats) string {
	if ts.QuarantinedBlocks > 0 {
		return "degraded"
	}
	if ts.IOErrors+ts.ChecksumFailures >= breakerTripFaults && ts.LastFaultUnixNano > 0 {
		if b.now().Sub(time.Unix(0, ts.LastFaultUnixNano)) < breakerCooldown {
			return "degraded"
		}
	}
	return "ok"
}

// TableStorage is one table's line in the storage section of GET
// /v1/stats: the fault counters plus the breaker's verdict.
type TableStorage struct {
	fastframe.TableStorageStats
	BreakerState string `json:"breaker_state"` // ok | degraded
}

// storage assembles the per-table storage stats (out-of-core tables
// only; resident tables have no storage to fail).
func (s *Server) storage() []TableStorage {
	var out []TableStorage
	for _, ts := range s.eng.StorageStats() {
		out = append(out, TableStorage{ts, s.brk.classify(ts)})
	}
	return out
}

// degradedTables lists the tables whose breaker currently reads
// degraded.
func (s *Server) degradedTables() []string {
	var out []string
	for _, ts := range s.eng.StorageStats() {
		if s.brk.classify(ts) != "ok" {
			out = append(out, ts.Table)
		}
	}
	return out
}
