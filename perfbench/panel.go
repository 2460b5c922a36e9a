package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/server"
)

// runPanel runs the city and storm workloads: every session of the
// panel is built, driven to its end in server-sized slices (the same
// granularity the HTTP server advances runs in) and captured at its
// mid-run slice boundary; then, with nothing else advancing, that
// checkpoint is encoded, decoded and restored. Each restore follows its
// own session, so restores and sessions see the same host conditions
// and the run's host factor fits both.
func runPanel(b *bench, kind string, specs []json.RawMessage, traced bool) *outcome {
	out := newOutcome()
	var jobs []job
	for _, spec := range specs {
		jobs = append(jobs, job{kind, spec})
	}
	out.setupS = measureSetup(b, jobs)

	h0 := sampleHost()
	for j, spec := range specs {
		// Each entry starts from a collected heap, outside the timed
		// phase, so that no entry pays for another's garbage.
		runtime.GC()
		sink := &snapshotSink{}
		s, err := checkpoint.Build(kind, spec, checkpoint.Options{SnapshotOut: sink})
		if !b.ops.check(err == nil, "%s session %d: build: %v", kind, j, err) {
			continue
		}
		var cp *checkpoint.Checkpoint
		var captureCost time.Duration
		run := driveSlices(s, out, b.speed, midRun(s.End()), func() {
			c0 := cpuNow()
			cp, err = checkpoint.Capture(s)
			captureCost = cpuNow() - c0
			if !b.ops.check(err == nil, "%s session %d: capture: %v", kind, j, err) {
				cp = nil
			}
		})
		c0 := cpuNow()
		res, err := json.Marshal(s.Result())
		run += cpuNow() - c0
		out.simS += s.End().Seconds()
		out.cpuS += run.Seconds()
		out.entryRates = append(out.entryRates, s.End().Seconds()/run.Seconds())
		if b.ops.check(err == nil, "%s session %d: result: %v", kind, j, err) {
			b.checkResult(kind, j, res)
		}
		if traced {
			b.ops.check(sink.harvest(out), "%s session %d: no final snapshot", kind, j)
		}
		if cp != nil {
			out.captureS = append(out.captureS, captureCost.Seconds())
			restorePanel(b, out, j, cp, captureCost, traced)
		}
	}
	out.host = h0.to(sampleHost())
	return out
}

// restorePanel encodes, decodes and restores one panel entry's
// checkpoint; restore_s counts the capture too.
func restorePanel(b *bench, out *outcome, j int, cp *checkpoint.Checkpoint, captureCost time.Duration, traced bool) {
	var buf bytes.Buffer
	b.speed.sample()
	runtime.GC() // as before each entry
	c0 := cpuNow()
	err := cp.Encode(&buf)
	c1 := cpuNow()
	if !b.ops.check(err == nil, "%s checkpoint %d: encode: %v", cp.Kind, j, err) {
		return
	}
	dec, err := checkpoint.Decode(bytes.NewReader(buf.Bytes()))
	c2 := cpuNow()
	if !b.ops.check(err == nil, "%s checkpoint %d: decode: %v", cp.Kind, j, err) {
		return
	}
	_, err = checkpoint.Restore(dec, checkpoint.Options{})
	c3 := cpuNow()
	if !b.ops.check(err == nil, "%s checkpoint %d: restore: %v", cp.Kind, j, err) {
		return
	}
	out.restoreS = append(out.restoreS, (captureCost + c3 - c0).Seconds())
	out.encodeS = append(out.encodeS, (c1 - c0).Seconds())
	out.decodeS = append(out.decodeS, (c2 - c1).Seconds())
	out.cpBytes += int64(buf.Len())
	if traced {
		restoreSplit(b, out, dec)
	}
}

// restoreSplit repeats checkpoint.Restore's three steps by hand so the
// traced run can time replay (Build + AdvanceTo) apart from
// verification (Sections + VerifySections).
func restoreSplit(b *bench, out *outcome, cp *checkpoint.Checkpoint) {
	c0 := cpuNow()
	s, err := checkpoint.Build(cp.Kind, cp.Config, checkpoint.Options{})
	if !b.ops.check(err == nil, "%s replay: build: %v", cp.Kind, err) {
		return
	}
	s.AdvanceTo(cp.At)
	c1 := cpuNow()
	err = checkpoint.VerifySections(cp.Sections, s.Sections())
	c2 := cpuNow()
	if b.ops.check(err == nil, "%s replay: verify: %v", cp.Kind, err) {
		out.replayS = append(out.replayS, (c1 - c0).Seconds())
		out.verifyS = append(out.verifyS, (c2 - c1).Seconds())
	}
}

// driveSlices advances s to its end in server.Slice steps, recording
// the CPU time of each step, and returns their total. Between steps it
// lets speed sample the host. At the slice boundary at it calls
// capture, whose CPU time is not counted.
func driveSlices(s checkpoint.Session, out *outcome, speed *hostSpeed, at time.Duration, capture func()) time.Duration {
	var run time.Duration
	for s.Now() < s.End() {
		next := s.Now() + server.Slice
		if next > s.End() {
			next = s.End()
		}
		c0 := cpuNow()
		s.AdvanceTo(next)
		d := cpuNow() - c0
		run += d
		out.sliceMS = append(out.sliceMS, ms(d))
		speed.after(d)
		if s.Now() == at {
			capture()
		}
	}
	return run
}

// job is one session a workload builds.
type job struct {
	kind string
	spec json.RawMessage
}

// measureSetup builds every session of the workload at least
// setupReps times, and for at least setupMinCPU of CPU time, and
// returns the median CPU seconds of one complete set of builds.
func measureSetup(b *bench, jobs []job) float64 {
	var reps []float64
	var spent time.Duration
	b.speed.sample()
	for len(reps) < setupReps || spent < setupMinCPU {
		c0 := cpuNow()
		for j, jb := range jobs {
			_, err := checkpoint.Build(jb.kind, jb.spec, checkpoint.Options{})
			if err != nil {
				b.ops.check(false, "%s session %d: setup build: %v", jb.kind, j, err)
				return 0
			}
		}
		d := cpuNow() - c0
		spent += d
		reps = append(reps, d.Seconds())
	}
	return median(reps)
}

// midRun is the fixed capture instant: the slice boundary at or
// before half the run.
func midRun(end time.Duration) time.Duration {
	return end / 2 / server.Slice * server.Slice
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// checkResult checks a finished session's result JSON: the run reached
// its end, a fault storm left no client orphaned, and on the default
// seed the bytes hash to the pinned value.
func (b *bench) checkResult(kind string, j int, res []byte) {
	var r struct {
		Done    bool `json:"done"`
		Orphans int  `json:"orphans"`
	}
	err := json.Unmarshal(res, &r)
	b.ops.check(err == nil && r.Done, "%s session %d: not done: %s", kind, j, res)
	if kind == "faultstorm" {
		b.ops.check(r.Orphans == 0, "%s session %d: %d orphaned clients", kind, j, r.Orphans)
	}
	b.pin(fmt.Sprintf("%s/%d", kind, j), res)
}

// pin records the result digest under key and, when the run uses the
// pinned inputs, checks it against the pinned value.
func (b *bench) pin(key string, res []byte) {
	sum := sha256.Sum256(res)
	got := hex.EncodeToString(sum[:])
	if prev, seen := b.digests[key]; seen {
		// The traced pass reruns the untraced pass's sessions with
		// telemetry on; observation must not change a result.
		b.ops.check(prev == got, "%s: traced result differs from untraced", key)
		return
	}
	b.digests[key] = got
	if want, ok := b.pinned[key]; ok {
		b.ops.check(want == got, "%s: result %s does not match pin %s: %s", key, got, want, res)
	}
}
