package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
)

// replayCase is one (kind, spec, checkpoint time) cell of the
// replay-identity matrix.
type replayCase struct {
	name string
	kind string
	spec interface{}
	at   time.Duration // capture time; mid-run, deliberately off-grid
}

// replayCases spans every session family, several seeds, and (for the
// sharded kind) several worker counts. Capture times are odd offsets
// so they land mid-transmission / mid-outage, not on tidy boundaries.
func replayCases() []replayCase {
	var cases []replayCase
	for _, seed := range []int64{3, 41} {
		cases = append(cases, replayCase{
			name: fmt.Sprintf("densecity/seed=%d", seed),
			kind: "densecity",
			spec: CitySpec{APs: 6, Seed: seed, MeasureMS: 4000, TelemetryMS: 500},
			at:   3351*time.Millisecond + 137*time.Microsecond,
		})
	}
	for _, workers := range []int{1, 4} {
		cases = append(cases, replayCase{
			name: fmt.Sprintf("tiledcity/workers=%d", workers),
			kind: "tiledcity",
			spec: CitySpec{APs: 8, Tiles: 4, Seed: 4242, MeasureMS: 4000,
				Mobility: true, Workers: workers, TelemetryMS: 500},
			at: 4211*time.Millisecond + 59*time.Microsecond,
		})
	}
	for _, seed := range []int64{7, 4099} {
		cases = append(cases, replayCase{
			name: fmt.Sprintf("mixedtraffic/seed=%d", seed),
			kind: "mixedtraffic",
			spec: MixedSpec{Clients: 4, Seed: seed, MeasureMS: 6000, Mixed: true},
			at:   5777 * time.Millisecond,
		})
	}
	for _, seed := range []int64{8191, 8244} {
		cases = append(cases, replayCase{
			name: fmt.Sprintf("faultstorm/seed=%d", seed),
			kind: "faultstorm",
			spec: StormSpec{Seed: seed, Rate: 1.5, RunMS: 30000, QuiesceMS: 18000, TelemetryMS: 2000},
			at:   13417*time.Millisecond + 421*time.Microsecond,
		})
	}
	return cases
}

// sessionArtifact renders a session's complete observable end state:
// section digests, then the JSON result. Sections are digested before
// Result — Result's finish path stops generators and flushes the
// observer, mutating the state the sections cover.
func sessionArtifact(t *testing.T, s checkpoint.Session) string {
	t.Helper()
	var sb bytes.Buffer
	for _, sec := range s.Sections() {
		fmt.Fprintf(&sb, "%s items=%d %s\n", sec.Name, sec.Items, sec.Digest)
	}
	res, err := json.Marshal(s.Result())
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sb.Write(res)
	sb.WriteByte('\n')
	return sb.String()
}

// TestReplayIdentity is the tentpole's pin: for every session family,
// checkpoint at a mid-run instant, restore a fresh session from the
// checkpoint bytes alone, run both to the end, and require the
// restored run to be indistinguishable from the uninterrupted one —
// same section digests, same result JSON, and a byte-identical
// observer snapshot stream from t=0.
func TestReplayIdentity(t *testing.T) {
	RegisterSessions()
	for _, tc := range replayCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			raw, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatalf("marshal spec: %v", err)
			}

			var ctrlStream bytes.Buffer
			ctrl, err := checkpoint.Build(tc.kind, raw, checkpoint.Options{SnapshotOut: &ctrlStream})
			if err != nil {
				t.Fatalf("build control: %v", err)
			}
			if tc.at <= 0 || tc.at >= ctrl.End() {
				t.Fatalf("capture time %v not strictly inside run (end %v)", tc.at, ctrl.End())
			}
			ctrl.AdvanceTo(tc.at)
			if got := ctrl.Now(); got != tc.at {
				t.Fatalf("control clock %v after AdvanceTo(%v)", got, tc.at)
			}
			cp, err := checkpoint.Capture(ctrl)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}

			// The checkpoint must survive its own encoding.
			var enc bytes.Buffer
			if err := cp.Encode(&enc); err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := checkpoint.Decode(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}

			var restStream bytes.Buffer
			restored, err := checkpoint.Restore(dec, checkpoint.Options{SnapshotOut: &restStream})
			if err != nil {
				t.Fatalf("restore: %v", err)
			}

			ctrl.AdvanceTo(ctrl.End())
			restored.AdvanceTo(restored.End())
			ctrlArt := sessionArtifact(t, ctrl)
			restArt := sessionArtifact(t, restored)
			if ctrlArt != restArt {
				t.Fatalf("restored run diverged from control:\n%s", firstDiff(ctrlArt, restArt))
			}
			if !bytes.Equal(ctrlStream.Bytes(), restStream.Bytes()) {
				t.Fatalf("snapshot streams diverged:\n%s",
					firstDiff(ctrlStream.String(), restStream.String()))
			}
		})
	}
}

// TestReplayIdentityStepped pins that advancing a session in many
// small steps is byte-identical to advancing it in one leap — the
// property the server's slice-at-a-time run loop depends on.
func TestReplayIdentityStepped(t *testing.T) {
	RegisterSessions()
	raw, _ := json.Marshal(CitySpec{APs: 5, Seed: 11, MeasureMS: 3000})

	one, err := checkpoint.Build("densecity", raw, checkpoint.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	one.AdvanceTo(one.End())

	stepped, err := checkpoint.Build("densecity", raw, checkpoint.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	step := 230 * time.Millisecond // off-grid on purpose
	for at := step; at < stepped.End(); at += step {
		stepped.AdvanceTo(at)
	}
	stepped.AdvanceTo(stepped.End())

	if a, b := sessionArtifact(t, one), sessionArtifact(t, stepped); a != b {
		t.Fatalf("stepped advance diverged:\n%s", firstDiff(a, b))
	}
}

// TestSectionExclusions pins the documented digest exclusion list: a
// freshly built session and one advanced-then-rebuilt session may
// share RNG objects' identities but not positions, and the sections
// must still catch every divergence the scenarios can produce. The
// test asserts the section names themselves — a new stateful
// component must either join the digests or this list, consciously.
func TestSectionExclusions(t *testing.T) {
	RegisterSessions()
	want := map[string][]string{
		"densecity":    {"engine", "air", "mac", "bss", "flows", "mics"},
		"tiledcity":    {"engine", "air", "mac", "bss", "flows", "mics"},
		"mixedtraffic": {"engine", "air", "protocol", "flows", "mics"},
		"faultstorm":   {"engine", "air", "protocol", "injector", "loss", "outages"},
	}
	specs := map[string]interface{}{
		"densecity":    CitySpec{APs: 2, Seed: 1, MeasureMS: 400, SettleMS: 300},
		"tiledcity":    CitySpec{APs: 2, Tiles: 2, Seed: 1, MeasureMS: 400, SettleMS: 300},
		"mixedtraffic": MixedSpec{Clients: 2, Seed: 1, MeasureMS: 400, SettleMS: 300},
		"faultstorm":   StormSpec{Seed: 1, Rate: 1, RunMS: 900, QuiesceMS: 600},
	}
	for kind, names := range want {
		raw, _ := json.Marshal(specs[kind])
		s, err := checkpoint.Build(kind, raw, checkpoint.Options{})
		if err != nil {
			t.Fatalf("build %s: %v", kind, err)
		}
		secs := s.Sections()
		if len(secs) != len(names) {
			t.Fatalf("%s: %d sections, want %d", kind, len(secs), len(names))
		}
		for i, sec := range secs {
			if sec.Name != names[i] {
				t.Errorf("%s section %d = %q, want %q", kind, i, sec.Name, names[i])
			}
		}
		s.AdvanceTo(s.End())
	}
}

// TestRestoreAfterResult pins that Result leaves a finished session
// checkpointable: capture at End after Result must restore (Restore
// verifies every section digest against a fresh replay to End), and
// the restored session must report the same sections and result.
func TestRestoreAfterResult(t *testing.T) {
	RegisterSessions()
	specs := map[string]interface{}{
		"densecity":    CitySpec{APs: 3, Seed: 2, MeasureMS: 1500, SettleMS: 500, TelemetryMS: 500},
		"tiledcity":    CitySpec{APs: 4, Tiles: 2, Seed: 2, MeasureMS: 1500, SettleMS: 500, Mobility: true, TelemetryMS: 500},
		"mixedtraffic": MixedSpec{Clients: 2, Seed: 2, MeasureMS: 1500, SettleMS: 500, Mixed: true},
		"faultstorm":   StormSpec{Seed: 2, Rate: 2, RunMS: 6000, QuiesceMS: 4000, TelemetryMS: 1000},
	}
	for kind, spec := range specs {
		kind, spec := kind, spec
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			raw, _ := json.Marshal(spec)
			s, err := checkpoint.Build(kind, raw, checkpoint.Options{SnapshotOut: &bytes.Buffer{}})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			s.AdvanceTo(s.End())
			want := sessionArtifact(t, s)
			cp, err := checkpoint.Capture(s)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			var enc bytes.Buffer
			if err := cp.Encode(&enc); err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := checkpoint.Decode(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			restored, err := checkpoint.Restore(dec, checkpoint.Options{SnapshotOut: &bytes.Buffer{}})
			if err != nil {
				t.Fatalf("restore after Result: %v", err)
			}
			if got := sessionArtifact(t, restored); got != want {
				t.Fatalf("restored finished run differs:\n%s", firstDiff(want, got))
			}
		})
	}
}
