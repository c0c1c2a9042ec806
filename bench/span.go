package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// span is one timed call into a layer. A root span (serve.request) is
// one timed call; its children are timed replays of the same
// deterministic input, laid out inside the parent from its start.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the traced run began
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // span ID, −1 for a root
	Request int    `json:"request_id"`
}

func (s span) duration() int64 { return s.End - s.Start }

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(name string, start, end time.Duration, parent, request int) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Name: name, Start: int64(start), End: int64(end), Parent: parent, Request: request})
	return id
}

func (l *spanLog) write(path string) error {
	raw, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, reach), min(k.End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = s.duration() - covered
	}
	return self
}

// layerShares sums self time per layer and divides by the total time
// of the root spans: each layer's share of serve.request.
func layerShares(spans []span) (shares map[string]float64, rootNS int64) {
	self := selfTimes(spans)
	byLayer := make(map[string]int64)
	for i, s := range spans {
		byLayer[s.layer()] += self[i]
		if s.Parent < 0 {
			rootNS += s.duration()
		}
	}
	shares = make(map[string]float64, len(byLayer))
	for layer, ns := range byLayer {
		shares[layer] = float64(ns) / float64(rootNS)
	}
	return shares, rootNS
}

// layerTable renders the shares, largest first.
func layerTable(shares map[string]float64, rootNS int64, requests int) string {
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return shares[layers[a]] > shares[layers[b]] })
	var b strings.Builder
	fmt.Fprintf(&b, "layer self time as a share of serve.request (%d requests, %.1f ms in all):\n", requests, float64(rootNS)/1e6)
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	for _, l := range layers {
		fmt.Fprintf(tw, "  %s\t%.1f%%\t%.3f ms/request\n", l, 100*shares[l], shares[l]*float64(rootNS)/1e6/float64(requests))
	}
	tw.Flush()
	return b.String()
}
