// Command perfbench is the repository's end-to-end benchmark: it runs
// one workload (city, storm or serve) on sessions generated from a
// seed, checks every result, and prints one JSON result line. Build
// and run it through run.py; README.md says what it measures and why.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"whitefi/internal/exp"
)

// buildDir is where run.py builds the program, relative to the
// repository root the program runs in; the traced run's CPU profile is
// written there.
const buildDir = ".bench_build"

// defaultSeed is the seed whose session results are pinned in
// pins.json.
const defaultSeed = 1

// The set-up phase builds the workload's sessions at least setupReps
// times and for at least setupMinCPU; setup_s is the median. The floor
// keeps the median steady where one set of builds takes milliseconds.
const (
	setupReps   = 5
	setupMinCPU = 300 * time.Millisecond
)

//go:embed pins.json
var pinsJSON []byte

// bench is one invocation's shared state.
type bench struct {
	seed    int64
	tiny    bool
	ops     ops
	speed   *hostSpeed
	pinned  map[string]string // result digests the run must reproduce
	digests map[string]string // result digests seen so far
}

// workload generates its inputs from the seed and size and runs one
// pass over them, traced or not.
type workload struct {
	// unitS is the nominal CPU seconds of one panel entry (session or
	// serve round, restore included) on the reference host; --seconds
	// divided by it fixes the panel size, so the inputs depend only on
	// the arguments, never on how fast the program runs.
	unitS float64
	specs func(b *bench, n int, traced bool) []json.RawMessage
	run   func(b *bench, specs []json.RawMessage, traced bool) *outcome
}

var workloads = map[string]workload{
	"city":  {unitS: 1.5, specs: citySpecs, run: panel("densecity")},
	"storm": {unitS: 2.4, specs: stormSpecs, run: panel("faultstorm")},
	"serve": {unitS: 3.0, specs: serveSpecs, run: runServe},
}

func panel(kind string) func(*bench, []json.RawMessage, bool) *outcome {
	return func(b *bench, specs []json.RawMessage, traced bool) *outcome {
		return runPanel(b, kind, specs, traced)
	}
}

func main() {
	name := flag.String("workload", "", "workload: city, storm or serve")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's sessions are generated from")
	seconds := flag.Float64("seconds", 10, "nominal CPU seconds of one run on the reference host; sets the panel size")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a profiled, telemetry-on pass")
	size := flag.String("size", "full", "full, or tiny for the self-check")
	specsOnly := flag.Bool("specs", false, "print the generated session specs and exit")
	emitPins := flag.Bool("emit-pins", false, "print the result digests as pins.json content instead of a result")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || (*size != "full" && *size != "tiny") || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload city|storm|serve --seed N --seconds S --trace 0|1 [--size full|tiny]")
		os.Exit(2)
	}
	b := &bench{seed: *seed, tiny: *size == "tiny", pinned: map[string]string{}, digests: map[string]string{},
		speed: newHostSpeed()}
	if !b.tiny && b.seed == defaultSeed {
		var all map[string]map[string]string
		if err := json.Unmarshal(pinsJSON, &all); err != nil {
			fmt.Fprintln(os.Stderr, "pins.json:", err)
			os.Exit(1)
		}
		b.pinned = all[*name]
	}
	n := int(math.Round(*seconds / w.unitS))
	if n < 1 {
		n = 1
	}
	if b.tiny {
		n = 2
	}
	if *trace == 1 {
		// The traced run measures half the panel twice, untraced and
		// traced, so it costs about as much as a gated run.
		n = (n + 1) / 2
	}
	if *specsOnly {
		for _, s := range w.specs(b, n, false) {
			fmt.Println(string(s))
		}
		return
	}
	// A run takes about --seconds of CPU on the reference host, and
	// well under twice that of wall time; one still going after the
	// watchdog is wedged. At --seconds 25 the watchdog (160 s) fires
	// inside a 180 s limit.
	watchdog := time.Duration(60+4**seconds) * time.Second
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d still running after %v\n", *name, *seed, watchdog)
		os.Exit(3)
	})
	exp.RegisterSessions()

	h0 := sampleHost()
	out := w.run(b, w.specs(b, n, false), false)
	var prof map[string]int64
	var samples int64
	var untracedRate float64
	if *trace == 1 {
		untracedRate = out.simRate()
		// The profile goes to the build directory run.py keeps beside
		// the binary, and is read back with go tool pprof.
		err := os.MkdirAll(buildDir, 0o755)
		var f *os.File
		if err == nil {
			f, err = os.CreateTemp(buildDir, "cpu-*.pprof")
		}
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpu profile:", err)
			os.Exit(1)
		}
		b.speed.off = true
		out = w.run(b, w.specs(b, n, true), true)
		pprof.StopCPUProfile()
		f.Close()
		prof, samples, err = flatByPackage(f.Name())
		b.ops.check(err == nil, "cpu profile: %v", err)
		os.Remove(f.Name())
	}
	whole := h0.to(sampleHost())

	if *emitPins {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]map[string]string{*name: b.digests}); err != nil {
			fmt.Fprintln(os.Stderr, "pins:", err)
			os.Exit(1)
		}
		return
	}

	diag := map[string]interface{}{
		"workload": *name, "seed": *seed, "entries": n,
		"sim_s": out.simS, "cpu_s": out.cpuS, "entry_rates": out.entryRates,
		"host.speed_factor": b.speed.factor(), "host.speed_samples": len(b.speed.factors),
		"raw.sim_rate": out.simRate(), "raw.setup_s": out.setupS, "raw.restore_s": mean(out.restoreS),
		"host.wall_s": whole.WallS, "host.steal_frac": whole.StealFrac, "host.gc_cpu_frac": whole.GCCPUFrac,
		"timed.wall_s": out.host.WallS, "timed.steal_frac": out.host.StealFrac, "timed.gc_cpu_frac": out.host.GCCPUFrac,
	}
	printJSON(map[string]interface{}{"diagnostics": diag})
	if prof != nil {
		printJSON(map[string]interface{}{"profile_flat_by_package": topShares(prof, samples, 15)})
	}

	var metrics map[string]metric
	if *trace == 1 {
		metrics = perLayer(b, out, untracedRate, prof, samples, whole)
	} else {
		metrics = endToEnd(b, out)
	}
	printJSON(map[string]interface{}{
		"correct":   b.ops.failed == 0,
		"attempted": b.ops.attempted,
		"failed":    b.ops.failed,
		"metrics":   metrics,
	})
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func m(v float64, unit string) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return metric{Value: v, Unit: unit}
}

func printJSON(v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// endToEnd returns the gated metrics. The CPU figures are in reference
// seconds: process CPU seconds divided by the run's host factor (see
// calib.go). pass_frac is 1 - fail_frac: a gated metric must never read
// 0, and the failure counts themselves are the result's attempted and
// failed fields.
func endToEnd(b *bench, out *outcome) map[string]metric {
	f := b.speed.factor()
	return map[string]metric{
		"sim_rate":    m(out.simRate()*f, "sim_s/ref_s"),
		"setup_s":     m(out.setupS/f, "s"),
		"max_rss_mib": m(maxRSSMiB(), "MiB"),
		"restore_s":   m(mean(out.restoreS)/f, "s"),
		"pass_frac":   m(1-failFrac(b), "frac"),
	}
}

func failFrac(b *bench) float64 {
	if b.ops.attempted == 0 {
		return 1
	}
	return float64(b.ops.failed) / float64(b.ops.attempted)
}

// internalPkgs are the repository packages the CPU profile is bucketed
// into, one cpu.<pkg> metric each; the rest count to cpu.other.
var internalPkgs = []string{
	"assign", "checkpoint", "core", "dynamics", "exp", "fault", "incumbent", "iq", "mac",
	"obs", "phy", "radio", "server", "sift", "sim", "spectrum", "trace", "traffic",
}

// topShares returns the n packages with the most flat samples, with
// their shares, for the traced run's diagnostics.
func topShares(prof map[string]int64, samples int64, n int) map[string]float64 {
	pkgs := make([]string, 0, len(prof))
	for p := range prof {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return prof[pkgs[i]] > prof[pkgs[j]] })
	out := map[string]float64{}
	for i, p := range pkgs {
		if i == n || samples == 0 {
			break
		}
		out[p] = float64(prof[p]) / float64(samples)
	}
	return out
}

// perLayer returns the traced pass's per-layer metrics.
func perLayer(b *bench, out *outcome, untracedRate float64, prof map[string]int64, samples int64, whole hostDelta) map[string]metric {
	c := out.counters
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	events := float64(c["engine.dispatched"])
	perSimS, nsPerEvent := ratio(events, out.simS), ratio(out.cpuS*1e9, events)
	if out.eventsPartial {
		// Not every run's events were counted, so no ratio over the
		// whole workload's time would be a rate.
		perSimS, nsPerEvent = 0, 0
	}
	r := map[string]metric{
		"sim.events":           m(events, "count"),
		"sim.events_per_sim_s": m(perSimS, "1/sim_s"),
		"sim.ns_per_event":     m(nsPerEvent, "ns"),

		"mac.launches":        m(float64(c["air.launches"]), "count"),
		"mac.collisions":      m(float64(c["air.collisions"]), "count"),
		"mac.collision_ratio": m(ratio(float64(c["air.collisions"]), float64(c["air.launches"])), "frac"),
		"mac.tx_data":         m(float64(c["mac.tx_data"]), "count"),
		"mac.tx_ok":           m(float64(c["mac.tx_ok"]), "count"),
		"mac.tx_success":      m(ratio(float64(c["mac.tx_ok"]), float64(c["mac.tx_data"])), "frac"),
		"mac.ack_timeouts":    m(float64(c["mac.ack_timeouts"]), "count"),
		"mac.queue_dropped":   m(float64(c["mac.queue_dropped"]), "count"),

		"radio.scans":         m(float64(c["radio.ap.scans"]), "count"),
		"sift.pulses":         m(float64(c["radio.ap.pulses"]), "count"),
		"sift.detections":     m(float64(c["radio.ap.detections"]), "count"),
		"radio.chirp_decodes": m(float64(c["radio.ap.chirp_decodes"]), "count"),

		"traffic.generated":      m(float64(c["traffic.generated"]), "count"),
		"traffic.delivered":      m(float64(c["traffic.delivered"]), "count"),
		"traffic.delivery_ratio": m(ratio(float64(c["traffic.delivered"]), float64(c["traffic.generated"])), "frac"),

		"core.chirps_sent":         m(float64(c["core.chirps_sent"]), "count"),
		"core.rendezvous_attempts": m(float64(c["core.rendezvous_attempts"]), "count"),
		"core.disconnects":         m(float64(c["core.disconnects"]), "count"),
		"core.reconnections":       m(float64(c["core.reconnections"]), "count"),
		"fault.injections":         m(float64(c["fault.injections"]), "count"),

		"obs.snapshot_bytes": m(float64(out.snapshotBytes), "B"),

		"checkpoint.restores":  m(float64(len(out.restoreS)), "count"),
		"checkpoint.capture_s": m(mean(out.captureS), "s"),
		"checkpoint.encode_s":  m(mean(out.encodeS), "s"),
		"checkpoint.decode_s":  m(mean(out.decodeS), "s"),
		"checkpoint.bytes":     m(float64(out.cpBytes), "B"),
		"checkpoint.replay_s":  m(mean(out.replayS), "s"),
		"checkpoint.verify_s":  m(mean(out.verifyS), "s"),

		"session.slices":       m(float64(len(out.sliceMS)), "count"),
		"session.slice_ms_p50": m(quantile(out.sliceMS, 0.5), "ms"),
		"session.slice_ms_p99": m(quantile(out.sliceMS, 0.99), "ms"),

		"server.control_n":      m(float64(len(out.controlMS)), "count"),
		"server.control_ms_p50": m(quantile(out.controlMS, 0.5), "ms"),
		"server.control_ms_p99": m(quantile(out.controlMS, 0.99), "ms"),
		"server.fork_ready_ms":  m(mean(out.forkReadyMS), "ms"),
		"server.stream_bytes":   m(float64(out.streamBytes), "B"),
		"server.goroutines_end": m(float64(out.goroutinesEnd), "count"),
		"server.live_mib_end":   m(out.liveMiBEnd, "MiB"),

		"host.sim_s":               m(out.simS, "s"),
		"host.cpu_s":               m(out.cpuS, "s"),
		"host.gc_cpu_frac":         m(out.host.GCCPUFrac, "frac"),
		"host.alloc_mib_per_sim_s": m(ratio(out.host.AllocBytes/(1<<20), out.simS), "MiB/sim_s"),
		"host.wall_s":              m(whole.WallS, "s"),
		"host.speed_factor":        m(b.speed.factor(), "ratio"),
		"host.steal_frac":          m(whole.StealFrac, "frac"),
		"host.trace_overhead":      m(ratio(untracedRate, out.simRate()), "ratio"),

		"fail_frac":   m(failFrac(b), "frac"),
		"cpu.samples": m(float64(samples), "count"),
	}
	share := func(n int64) float64 { return ratio(float64(n), float64(samples)) }
	rest := samples
	for _, p := range internalPkgs {
		n := prof["whitefi/internal/"+p]
		r["cpu."+p] = m(share(n), "frac")
		rest -= n
	}
	var runtimeN int64
	for pkg, n := range prof {
		if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
			runtimeN += n
		}
	}
	heapN := prof["container/heap"]
	r["cpu.container_heap"] = m(share(heapN), "frac")
	r["cpu.runtime"] = m(share(runtimeN), "frac")
	r["cpu.other"] = m(share(rest-heapN-runtimeN), "frac")
	return r
}
