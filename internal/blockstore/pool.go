package blockstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a shared buffer pool of column extents: queries pin the extent
// their scan is inside, and an LRU keeps recently used extents under a
// byte budget. Every read is a scan's own pin, made synchronously on the
// scanning goroutine; the pool starts no goroutine of its own.
// An extent is a fixed, aligned run of consecutive blocks of one column
// (Store.ExtentBlocks), read with one pread; it is the pool's one unit
// of I/O, caching, pinning and eviction. One pool is typically shared
// by every out-of-core table of a process, so the budget bounds their
// total cached bytes.
//
// Replacement is scan-resistant: an extent earns the LRU head only on
// its second scan pin since it was loaded (the second-reference rule of
// LRU-K and 2Q). One pinned once goes to the tail on its last unpin and
// is the next evicted, so a scan longer than the budget recycles its
// own extents instead of flushing the ones scans keep coming back to —
// the scramble prefix every query with the same start block reads
// first. The price: concurrent scans trailing each other through a
// full pool no longer find each other's once-used extents. Measured on
// the benchmark's ooc_mix request list (an 8 MiB pool, 7 % of the
// decoded table), two concurrent clients miss ≈ 16 extents per query,
// as one client does.
//
// Concurrency: a single mutex guards the frame map, the LRU list and
// the counters; an extent is read outside the lock with its frame held
// in a loading state, and concurrent pinners of the same extent wait on
// a condition variable (one physical read per extent, no matter how
// many queries want it). Inside a pinned extent a block
// is checked and decoded on its first use under the frame's own lock,
// and read with one atomic load afterwards: the pool mutex is taken per
// extent, never per block.
//
// Memory: an extent is charged its decoded rows, plus its bytes as read
// while any of its blocks is still unchecked. Once its last block is
// ready nothing reads those bytes again: their charge is returned and
// the read buffer parked on a freelist of at most maxFreeRaw buffers,
// which the next miss reads into. Evicted frames keep their own buffers
// on a freelist too, so a warmed-up pool pins, loads and evicts without
// allocating.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond

	budget int64
	used   int64
	pinned int // frames with at least one pin

	frames map[frameKey]*Frame
	// lruHead is the most recently used unpinned frame; lruTail the
	// eviction candidate.
	lruHead, lruTail *Frame

	freeFloat []*Frame
	freeCat   []*Frame
	freeRaw   [][]byte // read buffers of fully decoded extents

	hits, misses, evictions int64
	bytesRead               atomic.Int64 // added to outside mu, by block re-reads

	ioErrors, checksumFailures int64
	retries                    int64

	// quarantine holds blocks whose loads failed permanently (retries
	// exhausted, or deterministic corruption): later uses fail fast with
	// the recorded error instead of re-reading a known-bad segment.
	// quarantined mirrors its length, so that a block's first use looks
	// here — under mu — only while something is quarantined.
	quarantine  map[blockKey]*BlockError
	quarantined atomic.Int64

	retry RetryPolicy
}

// maxFreeRaw caps the pool's freelist of read buffers. An extent needs
// its buffer from its miss until its last block is decoded, so the
// buffers in use at once are about the extents being scanned at once;
// a release beyond the cap is left to the garbage collector.
const maxFreeRaw = 8

// frameKey names an extent, blockKey a block.
type frameKey struct {
	store  *Store
	col    int32
	extent int32
}

type blockKey struct {
	store *Store
	col   int32
	block int32
}

// blockSet is one bit per block of an extent.
type blockSet []uint64

func (s blockSet) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func (s blockSet) add(i int)      { s[i>>6] |= 1 << (i & 63) }

// Frame is one pinned extent. Callers make a block ready with Ensure
// and take rows with FloatRows or CatRows (whichever matches the column
// kind), or do both for one block with FloatBlock or CatBlock, and must
// Unpin when done with the extent; the slices are invalid after the
// unpin.
type Frame struct {
	pool    *Pool
	key     frameKey
	isFloat bool
	pins    int
	loading bool
	// used is set by the first scan pin since the extent was loaded,
	// reused by any later one: the last Unpin parks a reused frame at the
	// LRU head and a once-used one at the tail, next to be evicted.
	used, reused bool

	// first and n are the extent's blocks [first, first+n); blockSize
	// the rows of every block but possibly the table's last.
	first, n  int
	blockSize int

	// raw is the extent as read: block i's payload starts at
	// offs[first+i]-rawOff. floats or codes hold the decoded rows, block
	// i at i·blockSize, once bit i of ready is set: checked and decoded,
	// its rows may be read. mu serialises first uses (and so the writes
	// of ready and nready); a ready block is read without it. noRaw
	// marks the blocks whose bytes in raw are missing or known bad —
	// their segment is read on its own, through Store.Read*Block;
	// guarded by mu. When nready reaches n, raw goes back to the pool.
	mu      sync.Mutex
	raw     []byte
	rawOff  int64
	floats  []float64
	codes   []uint32
	ready   []atomic.Uint64
	nready  int
	noRaw   blockSet
	scratch []byte // a re-read block's segment
	// bytes is the budget charge: the decoded rows plus len(raw), and
	// raw is emptied once every block is ready. Guarded by the pool's
	// mu.
	bytes int64

	prev, next *Frame // LRU links, while unpinned
}

// Contains reports whether block b lies in the frame's extent.
func (f *Frame) Contains(b int) bool { return b >= f.first && b < f.first+f.n }

// FloatBlock makes block b ready and returns its rows; see Ensure.
func (f *Frame) FloatBlock(b int) ([]float64, error) {
	if err := f.Ensure(b); err != nil {
		return nil, err
	}
	return f.FloatRows(b, b+1), nil
}

// CatBlock returns the dictionary codes of block b; see FloatBlock.
func (f *Frame) CatBlock(b int) ([]uint32, error) {
	if err := f.Ensure(b); err != nil {
		return nil, err
	}
	return f.CatRows(b, b+1), nil
}

// FloatRows returns the decoded rows of blocks [lo, hi), which must lie
// in the extent, indexed from block lo's first row. It checks nothing:
// only the rows of blocks Ensure (or the pin) made ready without error
// hold the column's values, the others are unspecified.
func (f *Frame) FloatRows(lo, hi int) []float64 {
	return f.floats[(lo-f.first)*f.blockSize : min((hi-f.first)*f.blockSize, len(f.floats))]
}

// CatRows returns the decoded codes of blocks [lo, hi); see FloatRows.
func (f *Frame) CatRows(lo, hi int) []uint32 {
	return f.codes[(lo-f.first)*f.blockSize : min((hi-f.first)*f.blockSize, len(f.codes))]
}

// Ensure makes block b, which the extent must contain, ready: its first
// use verifies its checksum and decodes it (retrying and quarantining
// that block alone on failure); later uses cost one atomic load.
func (f *Frame) Ensure(b int) error {
	i := b - f.first
	if f.ready[i>>6].Load()&(1<<(i&63)) == 0 {
		return f.load(i)
	}
	return nil
}

// DefaultPoolBytes is the pool budget used when none is configured:
// 64 MiB of cached extents.
const DefaultPoolBytes = 64 << 20

// RetryPolicy governs how the pool handles a failed block load.
// Transient failures (ErrIO, ErrChecksum — a torn read may verify clean
// on the next attempt) are retried with capped exponential backoff;
// ErrDecode is deterministic and never retried. When attempts are
// exhausted the block is quarantined.
type RetryPolicy struct {
	// MaxAttempts is the total number of read attempts per load (≥ 1).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay.
	BaseDelay, MaxDelay time.Duration
	// Sleep is the clock seam: tests inject a recorder, production uses
	// time.Sleep (the default when nil).
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is the policy installed by NewPool: three attempts
// with 1ms → 2ms backoff, 50ms cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

// delay returns the backoff before retry attempt n (the n'th retry,
// 1-based).
func (rp RetryPolicy) delay(n int) time.Duration {
	d := rp.BaseDelay
	for i := 1; i < n; i++ {
		d *= 2
		if d >= rp.MaxDelay {
			return rp.MaxDelay
		}
	}
	if d > rp.MaxDelay {
		d = rp.MaxDelay
	}
	return d
}

// NewPool returns a pool with the given byte budget (DefaultPoolBytes if
// budget ≤ 0). The budget is a target, not a hard cap: pinned frames
// are never evicted, so a working set larger than the budget — or a
// budget smaller than one extent — temporarily exceeds it.
func NewPool(budget int64) *Pool {
	if budget <= 0 {
		budget = DefaultPoolBytes
	}
	p := &Pool{
		budget:     budget,
		frames:     map[frameKey]*Frame{},
		quarantine: map[blockKey]*BlockError{},
		retry:      DefaultRetryPolicy(),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// SetRetryPolicy replaces the pool's retry policy (MaxAttempts is
// clamped to ≥ 1). Safe to call concurrently with pins; in-flight loads
// keep the policy they started with.
func (p *Pool) SetRetryPolicy(rp RetryPolicy) {
	if rp.MaxAttempts < 1 {
		rp.MaxAttempts = 1
	}
	p.mu.Lock()
	p.retry = rp
	p.mu.Unlock()
}

// ClearQuarantine drops every quarantine entry for store s (all stores
// if s is nil), so later uses attempt fresh reads — for operators after
// replacing a damaged file, and for tests.
func (p *Pool) ClearQuarantine(s *Store) (removed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.quarantine {
		if s == nil || k.store == s {
			delete(p.quarantine, k)
			removed++
		}
	}
	p.quarantined.Store(int64(len(p.quarantine)))
	return removed
}

// Drop forgets store s, for the owner about to discard it (Table.Close
// calls it once the file is closed): its cached extents are evicted and
// their budget returned, and its quarantine entries cleared, so neither
// outlives the table in a pool shared with others. An extent still
// pinned cannot be evicted; Drop leaves it and reports it as an error —
// a query was in flight, or leaked a pin. An extent still loading is
// pinned by the scan reading it, and counts the same.
func (p *Pool) Drop(s *Store) error {
	p.ClearQuarantine(s)
	p.mu.Lock()
	defer p.mu.Unlock()
	pinned := 0
	for k, f := range p.frames {
		switch {
		case k.store != s:
		case f.pins > 0:
			pinned++
		default:
			p.lruRemove(f)
			p.removeLocked(f)
		}
	}
	if pinned > 0 {
		return fmt.Errorf("blockstore: dropping %s with %d extents still pinned", s.label, pinned)
	}
	return nil
}

// Close is a no-op: the pool owns no goroutine and no file. It stays
// only because the frozen bench/ package calls it.
func (p *Pool) Close() {}

// Stats is a snapshot of the pool counters. The pool's unit is the
// extent, so the cache counters count extents; the fault counters count
// blocks, which fail one at a time.
type Stats struct {
	// BudgetBytes and UsedBytes are the configured target and the bytes
	// currently cached (pinned + LRU): each extent's decoded rows, plus
	// its bytes as read while any of its blocks is still unchecked.
	BudgetBytes int64
	UsedBytes   int64
	// PinnedFrames is the number of extents pinned right now: 0 whenever
	// no scan is between two of its round barriers.
	PinnedFrames int64
	// Hits counts pins served from cache, Misses extents loaded from
	// disk by a pin, Evictions extents dropped under budget pressure.
	// With BytesRead they are a function of the sequence of pins alone.
	Hits, Misses, Evictions int64
	// BytesRead is the bytes physically read: whole extents — the
	// segments of blocks a scan then prunes or skips included, with
	// their length and checksum words — plus single segments re-read
	// after a failure.
	BytesRead int64
	// IOErrors and ChecksumFailures count failed block read attempts by
	// kind (decode failures count as checksum failures: both are
	// integrity losses); Retries counts backoff retries issued;
	// QuarantinedBlocks counts blocks currently quarantined after
	// permanent failure.
	IOErrors, ChecksumFailures int64
	Retries                    int64
	QuarantinedBlocks          int64
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		BudgetBytes:       p.budget,
		UsedBytes:         p.used,
		PinnedFrames:      int64(p.pinned),
		Hits:              p.hits,
		Misses:            p.misses,
		Evictions:         p.evictions,
		BytesRead:         p.bytesRead.Load(),
		IOErrors:          p.ioErrors,
		ChecksumFailures:  p.checksumFailures,
		Retries:           p.retries,
		QuarantinedBlocks: int64(len(p.quarantine)),
	}
}

// PinFloat pins the extent of float column ci that holds block b,
// reading it if absent, and makes block b ready: the frame's
// Ensure(b) cannot fail afterwards, and any other block of the
// extent is checked on its own first use. The extent stays resident
// until the matching Unpin. A block that cannot be read fails the pin,
// with a *BlockError naming it, and leaves nothing pinned.
func (p *Pool) PinFloat(s *Store, ci, b int) (*Frame, error) {
	f := p.pin(s, ci, b, true)
	if _, err := f.FloatBlock(b); err != nil {
		p.Unpin(f)
		return nil, err
	}
	return f, nil
}

// PinCat pins the extent of categorical column ci that holds block b;
// see PinFloat.
func (p *Pool) PinCat(s *Store, ci, b int) (*Frame, error) {
	f := p.pin(s, ci, b, false)
	if _, err := f.CatBlock(b); err != nil {
		p.Unpin(f)
		return nil, err
	}
	return f, nil
}

// pin returns the pinned frame of the extent holding block b of column
// ci, loading it on a miss. Loading cannot fail: an extent whose bytes
// did not arrive has its blocks read one by one instead, on first use,
// where a failure is that block's alone.
func (p *Pool) pin(s *Store, ci, b int, isFloat bool) *Frame {
	x := b / s.extBlocks
	key := frameKey{store: s, col: int32(ci), extent: int32(x)}
	p.mu.Lock()
	for {
		f, ok := p.frames[key]
		if !ok {
			break
		}
		if f.loading {
			// Another goroutine is reading this very extent: wait for it
			// rather than issuing a duplicate read.
			p.cond.Wait()
			continue
		}
		if f.pins == 0 {
			p.lruRemove(f)
			p.pinned++
		}
		f.pins++
		f.reused = f.used
		f.used = true
		p.hits++
		p.mu.Unlock()
		return f
	}

	// Miss: claim the key with a loading frame, then read outside the
	// lock.
	f := p.allocFrame(isFloat)
	f.pool = p
	f.key = key
	f.isFloat = isFloat
	f.loading = true
	f.used, f.reused = true, false
	f.first = x * s.extBlocks
	f.n = min(s.extBlocks, s.meta.NumBlocks()-f.first)
	f.blockSize = s.meta.BlockSize
	rows := min(f.n*f.blockSize, s.meta.Rows-f.first*f.blockSize)
	if words := (f.n + 63) / 64; len(f.ready) != words {
		f.ready = make([]atomic.Uint64, words)
		f.noRaw = make(blockSet, words)
	}
	off, rawLen, contiguous := s.extentSpan(ci, f.first, f.first+f.n)
	f.rawOff = off
	if n := len(p.freeRaw); f.raw == nil && contiguous && n > 0 {
		f.raw, p.freeRaw = p.freeRaw[n-1], p.freeRaw[:n-1]
	}
	f.raw = f.raw[:0] // charged by its length: rawLen once read, else 0
	f.nready = 0
	if isFloat {
		if cap(f.floats) < rows {
			f.floats = make([]float64, rows)
		}
		f.floats = f.floats[:rows]
		f.bytes = int64(rawLen) + int64(rows)*8
	} else {
		if cap(f.codes) < rows {
			f.codes = make([]uint32, rows)
		}
		f.codes = f.codes[:rows]
		f.bytes = int64(rawLen) + int64(rows)*4
	}
	p.frames[key] = f
	p.used += f.bytes
	f.pins = 1
	p.pinned++
	p.misses++
	p.evictLocked()
	p.mu.Unlock()

	var err error
	if contiguous {
		f.raw, err = s.readExtent(off, rawLen, f.raw)
		p.bytesRead.Add(int64(rawLen))
	}
	var noRaw uint64
	if !contiguous || err != nil {
		noRaw = ^uint64(0)
	}
	for w := range f.ready {
		f.ready[w].Store(0)
		f.noRaw[w] = noRaw
	}

	p.mu.Lock()
	f.loading = false
	p.cond.Broadcast()
	if err != nil {
		p.ioErrors++
		s.ioErrors.Add(1)
	}
	p.mu.Unlock()
	return f
}

// load makes block i of the extent ready: fast-fail if quarantined,
// else check and decode it from the extent's bytes. The pool mutex is
// not taken unless something is, or is about to be, quarantined.
func (f *Frame) load(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	word, bit := &f.ready[i>>6], uint64(1)<<(i&63)
	if word.Load()&bit != 0 {
		return nil
	}
	p := f.pool
	key := blockKey{store: f.key.store, col: f.key.col, block: int32(f.first + i)}
	if p.quarantined.Load() > 0 {
		p.mu.Lock()
		qerr := p.quarantine[key]
		p.mu.Unlock()
		if qerr != nil {
			return qerr
		}
	}
	var err error
	if f.noRaw.has(i) {
		err = f.reread(i, 0)
	} else {
		err = f.decodeRaw(i)
	}
	if err != nil {
		err = f.retry(i, key, err)
	}
	if err == nil {
		word.Store(word.Load() | bit)
		f.nready++
		if f.nready == f.n {
			p.releaseRaw(f)
		}
	}
	return err
}

// releaseRaw returns the charge for the bytes of an extent whose every
// block is ready, which nothing reads again, and parks its read buffer
// for a later miss. Caller holds f.mu.
func (p *Pool) releaseRaw(f *Frame) {
	p.mu.Lock()
	f.bytes -= int64(len(f.raw))
	p.used -= int64(len(f.raw))
	if cap(f.raw) > 0 && len(p.freeRaw) < maxFreeRaw {
		p.freeRaw = append(p.freeRaw, f.raw)
	}
	f.raw = nil
	p.mu.Unlock()
}

// retry takes over a block whose first read attempt failed with err: a
// transient failure (I/O, checksum — a torn read may verify clean next
// time) backs off and re-reads that one segment through the store, up
// to the retry policy's attempts; deterministic decode corruption is
// never retried. A block that succeeds after retries is
// indistinguishable from a clean one — same decoded rows, so query
// results are byte-identical. One that fails for good is quarantined,
// alone: its neighbours in the extent are untouched. Caller holds f.mu.
func (f *Frame) retry(i int, key blockKey, err error) error {
	p, s := f.pool, f.key.store
	// Whatever the frame holds for this block is not to be trusted
	// again, by this load or by one after ClearQuarantine.
	f.noRaw.add(i)
	p.mu.Lock()
	rp := p.retry
	p.mu.Unlock()
	var nIO, nChecksum, nRetries int64
	for attempt := 0; ; {
		kind := ErrIO
		var be *BlockError
		if errors.As(err, &be) {
			kind = be.Kind
		}
		if kind == ErrIO {
			nIO++
		} else {
			nChecksum++
		}
		s.noteFault(time.Now().UnixNano())
		if kind == ErrDecode || attempt+1 >= rp.MaxAttempts {
			break
		}
		attempt++
		nRetries++
		s.noteRetry()
		sleep := rp.Sleep
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(rp.delay(attempt))
		if err = f.reread(i, attempt); err == nil {
			break
		}
	}

	p.mu.Lock()
	p.ioErrors += nIO
	p.checksumFailures += nChecksum
	p.retries += nRetries
	var be *BlockError
	if errors.As(err, &be) {
		if _, dup := p.quarantine[key]; !dup {
			p.quarantine[key] = be
			p.quarantined.Store(int64(len(p.quarantine)))
			s.noteQuarantine()
		}
	}
	p.mu.Unlock()
	return err
}

// decodeRaw is a block's first read attempt: the fault hook, then the
// checksum and decode of its bytes inside the extent as read.
func (f *Frame) decodeRaw(i int) error {
	s, ci, b := f.key.store, int(f.key.col), f.first+i
	if err := s.injectFault(ci, b, 0); err != nil {
		return err
	}
	seg, err := s.verify(ci, b, f.raw[s.dir[ci].offs[b]-f.rawOff:])
	if err != nil {
		return err
	}
	off, n := i*f.blockSize, s.meta.BlockRows(b)
	if f.isFloat {
		_, err = DecodeFloatBlock(seg, f.floats[off:off:off+n], n)
	} else {
		_, err = DecodeCatBlock(seg, f.codes[off:off:off+n], n)
	}
	if err != nil {
		return s.blockErr(ci, b, ErrDecode, err)
	}
	return nil
}

// reread reads block i's segment on its own and decodes it in place.
func (f *Frame) reread(i, attempt int) (err error) {
	s, ci, b := f.key.store, int(f.key.col), f.first+i
	off, n := i*f.blockSize, s.meta.BlockRows(b)
	f.pool.bytesRead.Add(int64(s.dir[ci].lens[b]) + int64(s.segPad()))
	if f.isFloat {
		_, f.scratch, err = s.readFloatBlock(ci, b, f.floats[off:off:off+n], f.scratch, attempt)
	} else {
		_, f.scratch, err = s.readCatBlock(ci, b, f.codes[off:off:off+n], f.scratch, attempt)
	}
	return err
}

// Unpin releases a pinned frame. Slices taken from it must not be used
// afterwards. The last unpin parks a reused frame at the LRU head and a
// once-used one at the tail, where it is the next evicted.
func (p *Pool) Unpin(f *Frame) {
	if f == nil {
		return
	}
	p.mu.Lock()
	f.pins--
	if f.pins == 0 {
		p.pinned--
		at := p.lruTail
		if f.reused {
			at = nil
		}
		p.lruInsert(f, at)
		if p.used > p.budget {
			p.evictLocked()
		}
	}
	p.mu.Unlock()
}

// evictLocked drops LRU frames until the budget holds or only pinned
// frames remain. Caller holds p.mu.
func (p *Pool) evictLocked() {
	for p.used > p.budget && p.lruTail != nil {
		f := p.lruTail
		p.lruRemove(f)
		p.removeLocked(f)
		p.evictions++
	}
}

// removeLocked takes an unpinned frame, already out of the LRU, out of
// the cache: unmapped, uncharged, its buffers parked for reuse. Caller
// holds p.mu.
func (p *Pool) removeLocked(f *Frame) {
	delete(p.frames, f.key)
	p.used -= f.bytes
	f.key = frameKey{}
	if f.isFloat {
		p.freeFloat = append(p.freeFloat, f)
	} else {
		p.freeCat = append(p.freeCat, f)
	}
}

// allocFrame takes a frame off the matching freelist or allocates one.
// Caller holds p.mu.
func (p *Pool) allocFrame(isFloat bool) *Frame {
	list := &p.freeCat
	if isFloat {
		list = &p.freeFloat
	}
	if n := len(*list); n > 0 {
		f := (*list)[n-1]
		*list = (*list)[:n-1]
		return f
	}
	return &Frame{}
}

// lruInsert links f after at, or at the head (most recently used) if at
// is nil. Caller holds p.mu.
func (p *Pool) lruInsert(f, at *Frame) {
	f.prev = at
	if at != nil {
		f.next = at.next
		at.next = f
	} else {
		f.next = p.lruHead
		p.lruHead = f
	}
	if f.next != nil {
		f.next.prev = f
	} else {
		p.lruTail = f
	}
}

// lruRemove unlinks f. Caller holds p.mu.
func (p *Pool) lruRemove(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		p.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		p.lruTail = f.prev
	}
	f.prev, f.next = nil, nil
}
