package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/traffic"
)

// cityPins are SHA-256 hashes of complete city artifacts: end-of-run
// section digests, result JSON and observer snapshot stream. Unlike the
// shard-equivalence matrix, which only compares shard counts with each
// other, these pin absolute bytes, so a change that shifts the
// continuous or tiled city the same way everywhere still fails here.
var cityPins = map[string]string{
	"densecity/plain":              "b2ef7471f48fdb8281662c456dc0a94137f0caa2e173b40d54a2394f326e9cb9",
	"densecity/telemetry":          "48750cf575ab1c3019f5dd18ac5cf686993c19c60857d39c01dcb33ecd1f4ddd",
	"densecity/add-aps":            "527ad54062af15fb35053e21cee4813b098e245033c6fd2c31d9205fb603a8f0",
	"densecity/traffic":            "2e4bf1c6a04cfba9df45d69919ca91bd238346e410931716d356c71de8d02075",
	"tiledcity/mobility-telemetry": "254813d870b1213a334d108bc23612295d4a63f4a0f6d86ec8b7ba2adeb15de3",
	"tiledcity/plain":              "03eb338084c8e7cfbaee33b8c9bd54678bc5b2588415ec718b3001e431860cd4",
	"tiledcity/artifact":           "5a5322c0465fb044514be4669b26f95867d92b3c6daf67aa0ba280ab7bbda8a0",
}

// cityPinSpecs are the session cases of cityPins.
var cityPinSpecs = []struct {
	name, kind string
	spec       CitySpec
}{
	{"densecity/plain", "densecity", CitySpec{APs: 5, Seed: 11, SettleMS: 1000, MeasureMS: 3000}},
	{"densecity/telemetry", "densecity", CitySpec{APs: 6, Seed: 3, ClientsPerAP: 3, QueueLimit: 16, MeasureMS: 3000, TelemetryMS: 500}},
	{"tiledcity/mobility-telemetry", "tiledcity", CitySpec{APs: 8, Tiles: 4, Shards: 2, Workers: 1, Seed: 4242, MeasureMS: 3000, Mobility: true, TelemetryMS: 500}},
	{"tiledcity/plain", "tiledcity", CitySpec{APs: 6, Tiles: 3, Seed: 5, QueueLimit: 8, MeasureMS: 2000}},
}

// endArtifact runs s to its end and renders its section digests, result
// JSON and the snapshot stream it wrote.
func endArtifact(t *testing.T, s checkpoint.Session, stream *bytes.Buffer) string {
	t.Helper()
	s.AdvanceTo(s.End())
	return sessionArtifact(t, s) + "--snapshots--\n" + stream.String()
}

// cityPinArtifacts computes every cityPins artifact by name.
func cityPinArtifacts(t *testing.T) map[string]string {
	t.Helper()
	RegisterSessions()
	arts := map[string]string{}
	for _, c := range cityPinSpecs {
		raw, _ := json.Marshal(c.spec)
		var stream bytes.Buffer
		s, err := checkpoint.Build(c.kind, raw, checkpoint.Options{SnapshotOut: &stream})
		if err != nil {
			t.Fatalf("%s: build: %v", c.name, err)
		}
		arts[c.name] = endArtifact(t, s, &stream)
	}

	// A fork with two add-aps edits, its stream replayed from t=0.
	raw, _ := json.Marshal(CitySpec{APs: 5, Seed: 7, MeasureMS: 3000, TelemetryMS: 1000})
	s, err := checkpoint.Build("densecity", raw, checkpoint.Options{})
	if err != nil {
		t.Fatalf("add-aps: build: %v", err)
	}
	s.AdvanceTo(2600 * time.Millisecond)
	cp, err := checkpoint.Capture(s)
	if err != nil {
		t.Fatalf("add-aps: capture: %v", err)
	}
	var stream bytes.Buffer
	fork, err := checkpoint.Fork(cp, []checkpoint.Edit{{Op: "add-aps", N: 2, Seed: 5}, {Op: "add-aps", N: 1, Seed: 5}},
		checkpoint.Options{SnapshotOut: &stream})
	if err != nil {
		t.Fatalf("add-aps: fork: %v", err)
	}
	arts["densecity/add-aps"] = endArtifact(t, fork, &stream)

	// Heterogeneous traffic with uplink flows: reachable only through
	// the config, not the session spec.
	res := DenseCityRun(DenseCityConfig{
		APs: 6, Seed: 9, Measure: 3 * time.Second,
		Traffic: traffic.Models(), UplinkFrac: 0.3, QueueLimit: 32,
	})
	res.WallClock = 0
	js, _ := json.Marshal(res)
	arts["densecity/traffic"] = string(js)

	arts["tiledcity/artifact"] = cityArtifact(t, 1, 1)
	return arts
}

// TestCityPins holds the continuous and tiled cities to the bytes they
// produced when the pins were taken.
func TestCityPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven small cities")
	}
	for name, art := range cityPinArtifacts(t) {
		sum := sha256.Sum256([]byte(art))
		if got := hex.EncodeToString(sum[:]); got != cityPins[name] {
			t.Errorf("%s: artifact hash %s, pinned %s", name, got, cityPins[name])
		}
	}
}
