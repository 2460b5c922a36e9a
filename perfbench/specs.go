package main

import (
	"encoding/json"

	"whitefi/internal/exp"
)

// subSeed derives the seed of panel entry j from the workload seed
// (splitmix64 finaliser, kept to 31 bits so specs stay readable).
func subSeed(seed int64, j int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(j+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 33)
}

func mustJSON(v interface{}) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// citySpecs is the dense-contention panel: n continuous cities on the
// serial engine, CBR downlink plus Markov mics, bounded AP queues. One
// city's sim_rate depends on its placement by about ±13%, so the panel
// spreads the run over n placements.
func citySpecs(b *bench, n int, traced bool) []json.RawMessage {
	var out []json.RawMessage
	for j := 0; j < n; j++ {
		sp := exp.CitySpec{APs: 100, Seed: subSeed(b.seed, j), SettleMS: 1000, MeasureMS: 1000, QueueLimit: 128}
		if b.tiny {
			sp.APs, sp.SettleMS, sp.MeasureMS = 6, 500, 500
		}
		if traced {
			sp.TelemetryMS = 1000
		}
		out = append(out, mustJSON(sp))
	}
	return out
}

// stormSpecs is the recovery panel: n single-BSS fault storms at the
// sweep's highest fault rate, each quiescing late and then draining.
func stormSpecs(b *bench, n int, traced bool) []json.RawMessage {
	var out []json.RawMessage
	for j := 0; j < n; j++ {
		sp := exp.StormSpec{Seed: subSeed(b.seed, j), Rate: 2, RunMS: 150000, QuiesceMS: 120000}
		if b.tiny {
			sp.RunMS, sp.QuiesceMS = 20000, 15000
		}
		if traced {
			sp.TelemetryMS = 10000
		}
		out = append(out, mustJSON(sp))
	}
	return out
}

// serveRound is the input of one serve round.
type serveRound struct {
	City    exp.CitySpec `json:"city"`  // densecity run: paused, checkpointed, forked, resumed
	Tiled   exp.CitySpec `json:"tiled"` // tiledcity run hosted beside it
	PauseMS int          `json:"pause_ms"`
	AddAPs  int          `json:"add_aps"` // the fork's add-aps edit
}

// serveSpecs generates n serve rounds. Both runs stream telemetry in
// every pass: stream writes beside reads are part of the workload.
func serveSpecs(b *bench, n int, _ bool) []json.RawMessage {
	var out []json.RawMessage
	for j := 0; j < n; j++ {
		r := serveRound{
			City: exp.CitySpec{APs: 60, Seed: subSeed(b.seed, 2*j), SettleMS: 1000, MeasureMS: 2000,
				QueueLimit: 128, TelemetryMS: 250},
			Tiled: exp.CitySpec{APs: 64, Seed: subSeed(b.seed, 2*j+1), SettleMS: 1000, MeasureMS: 2000,
				QueueLimit: 128, Tiles: 4, Shards: 2, Workers: 1, Mobility: true, TelemetryMS: 250},
			PauseMS: 1500,
			AddAPs:  8,
		}
		if b.tiny {
			// Large enough that the city run outlasts the client's
			// reaction to the snapshot that triggers the pause.
			r.City.APs, r.City.SettleMS, r.City.MeasureMS = 50, 500, 2500
			r.Tiled.APs, r.Tiled.SettleMS, r.Tiled.MeasureMS = 8, 500, 2500
			r.PauseMS, r.AddAPs = 750, 2
		}
		out = append(out, mustJSON(r))
	}
	return out
}
