package main

import (
	"sort"
	"sync"
	"time"
)

// The recording box is a few cores of a shared host whose clock follows
// its neighbours' load: the same instructions take 1× to 1.5× as long
// from one ten seconds to the next, the server's CPU time for one fixed
// request moves with them, and no length of run a benchmark can afford
// averages that out. A speedProbe measures it. Between two requests the
// load generator runs a fixed, cache-resident loop and times it; a
// request's reply time, divided by how much slower than referenceProbe
// the loops around it ran, is the time the reply would have taken on a
// box that runs the loop in exactly referenceProbe. Every time metric
// of the end-to-end run is reported in those reference units. They
// compare between runs, seeds and commits on one machine; the raw
// times are kept in the report beside them.
const (
	// referenceProbe is the reference box's time for one probe loop. It
	// is what the recording box needs when nothing disturbs it, so that
	// reference milliseconds read like its best real ones. The loop is
	// compiled code: a new Go version may move every time metric a little.
	referenceProbe = 130 * time.Microsecond
	// probeEvery keeps the probes from taking more than 1 % of a run.
	probeEvery = 15 * time.Millisecond
	// probeNear is how many probes around a moment are asked for the
	// speed at that moment; their median shrugs off one interrupted loop.
	probeNear = 5
)

var (
	probeData = func() []float64 {
		xs := make([]float64, 4096) // 32 KiB: stays in the first-level cache
		for i := range xs {
			xs[i] = float64(i%977) * 0.5
		}
		return xs
	}()
	probeSink float64
)

// probeLoop is the fixed work: a predicated sum, the shape of a scan
// kernel without its memory traffic.
func probeLoop() time.Duration {
	start := time.Now()
	sum := 0.0
	for pass := 0; pass < 50; pass++ {
		for _, v := range probeData {
			if v > 100 {
				sum += v
			}
		}
	}
	probeSink = sum
	return time.Since(start)
}

// speedProbe records timed probe loops against a common clock.
type speedProbe struct {
	mu    sync.Mutex // several clients may idle at once
	start time.Time
	at    []time.Duration // since start, ascending
	took  []time.Duration
}

func newSpeedProbe() *speedProbe { return &speedProbe{start: time.Now()} }

func (sp *speedProbe) record() {
	took := probeLoop()
	sp.at = append(sp.at, time.Since(sp.start))
	sp.took = append(sp.took, took)
}

// idle is what a closed-loop client does between two requests: one
// probe loop, unless one ran a moment ago.
func (sp *speedProbe) idle() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if n := len(sp.at); n == 0 || time.Since(sp.start)-sp.at[n-1] >= probeEvery {
		sp.record()
	}
}

// slowdown is how many times slower than the reference box this box ran
// around the moment at (since start): the median of the probeNear
// probes nearest in order, over referenceProbe. Without probes it is 1.
func (sp *speedProbe) slowdown(at time.Duration) float64 {
	n := len(sp.at)
	if n == 0 {
		return 1
	}
	i := sort.Search(n, func(i int) bool { return sp.at[i] >= at })
	lo := max(0, min(i-probeNear/2, n-probeNear))
	near := make([]float64, 0, probeNear)
	for _, d := range sp.took[lo:min(lo+probeNear, n)] {
		near = append(near, float64(d))
	}
	return median(near) / float64(referenceProbe)
}

// timeAtReferenceSpeed runs step and returns how long it would have
// taken on the reference box, in seconds: probes before and after give
// the box's speed while it ran.
func timeAtReferenceSpeed(step func() error) (float64, error) {
	sp := newSpeedProbe()
	for i := 0; i < 3; i++ {
		sp.record()
	}
	begin := time.Now()
	err := step()
	took := time.Since(begin)
	for i := 0; i < 3; i++ {
		sp.record()
	}
	all := make([]float64, len(sp.took))
	for i, d := range sp.took {
		all[i] = float64(d)
	}
	return took.Seconds() * float64(referenceProbe) / median(all), err
}
