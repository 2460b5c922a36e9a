package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// ops counts the workload's operations — session runs, restores, HTTP
// requests and correctness checks — and the ones that failed.
type ops struct {
	attempted, failed int
}

// check counts one operation and reports whether it succeeded,
// describing a failure on standard error.
func (o *ops) check(ok bool, format string, args ...interface{}) bool {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
	return ok
}

// outcome is what one pass over a workload measured.
type outcome struct {
	simS   float64 // virtual seconds advanced in the timed phase
	cpuS   float64 // process CPU seconds of the timed phase
	setupS float64 // median CPU seconds to build every session once
	host   hostDelta
	// entryRates is each panel entry's own sim_rate, in panel order.
	entryRates []float64

	restoreS                   []float64 // per restore, CPU seconds
	captureS, encodeS, decodeS []float64
	replayS, verifyS           []float64
	cpBytes                    int64
	sliceMS                    []float64 // CPU per slice

	counters      map[string]int64 // final snapshot counters, summed
	eventsPartial bool             // some runs export no dispatch counter
	snapshotBytes int64

	controlMS     []float64 // wall ms per control request
	forkReadyMS   []float64
	streamBytes   int64
	goroutinesEnd int
	liveMiBEnd    float64
}

func newOutcome() *outcome { return &outcome{counters: map[string]int64{}} }

func (o *outcome) simRate() float64 {
	if o.cpuS <= 0 {
		return 0
	}
	return o.simS / o.cpuS
}

// snapshotSink is a session's snapshot writer: it counts the stream's
// bytes and keeps the last snapshot line, whose counters are the
// session's end-of-run telemetry.
type snapshotSink struct {
	n    int64
	last []byte
}

func (s *snapshotSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	if bytes.HasPrefix(p, []byte(`{"event":"snapshot"`)) {
		s.last = append(s.last[:0], p...)
	}
	return len(p), nil
}

// tilePrefix matches the per-tile prefix of tiled-city counters, so
// "tile03.mac.tx_ok" sums into "mac.tx_ok".
var tilePrefix = regexp.MustCompile(`^tile\d+\.`)

// harvest adds the last snapshot's counters and the stream's byte count
// to out. It reports false when the stream held no snapshot.
func (s *snapshotSink) harvest(out *outcome) bool {
	out.snapshotBytes += s.n
	if s.last == nil {
		return false
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(s.last, &snap); err != nil {
		return false
	}
	for k, v := range snap.Counters {
		out.counters[tilePrefix.ReplaceAllString(k, "")] += v
	}
	return true
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
