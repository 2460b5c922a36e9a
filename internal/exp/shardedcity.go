package exp

import (
	"fmt"
	"runtime"
	"time"

	"whitefi/internal/trace"
)

// Tiled metro: the dense city restated as Tiles guard-spaced city
// tiles in a row, so the world has a provably safe spatial partition
// and can run on the sharded parallel engine (sim.ShardedEngine).
// Each tile is a self-contained dense deployment — its own square of
// APs, clients, flows and assignment rounds — and consecutive tiles
// are separated by a guard strip wider than twice
// mac.InteractionRange, so no transmission in one tile can decode,
// busy, or interfere in another. mac.VerifyPartition re-checks that
// claim at build time. The continuous and tiled cities are one run
// type built by buildCity; cityRun.layout makes the few choices that
// differ.
//
// The determinism story, mechanism by mechanism:
//
//   - Geometry, channels, flow specs: drawn host-side at build from
//     one seeded stream in fixed tile order — no engine involved.
//   - DCF backoff: every node gets a per-entity stream
//     (sim.Engine.RandFor keyed by node id), identical on any engine
//     built from the same seed, so backoff draws do not depend on
//     which shard the node landed on or who else shares its engine.
//   - Markov mics: incumbent.Mic is pure state, so every shard hosts
//     an identically-seeded replica set (plus one on the coordinator
//     for barrier-time sampling); each dynamics.Activity owns its RNG,
//     so every replica realises the same schedule independently.
//   - Assignment: APs re-evaluate on their own shard engine against
//     their own tile's medium (radio.TrueAirtime is observer-relative
//     and spatially culled — remote tiles contribute exactly zero) and
//     their shard's mic replicas.
//   - Mobility: dynamics.RandomWaypoint generates its path from its
//     own seed; walkers stay inside their tile (waypoint boxes are
//     inset from tile edges), so motion never threatens the partition.
//
// Everything cross-shard — snapshot emission, mic-occupancy sampling,
// final summarization — happens on the coordinator engine at
// barriers, with every shard paused on the same instant: a
// coordinator event at T bounds the conservative window at T, and
// shard events at T fire during the shard advance, before any
// coordinator callback at T. The result: one (config, seed) pair
// produces byte-identical results, metric snapshots and digests at ANY
// shard count and ANY worker count, which is exactly what
// TestShardEquivalence pins.

const (
	// tileGuardMargin widens the inter-tile guard strip beyond the
	// 2×InteractionRange minimum, so float rounding in range math can
	// never put the partition in question.
	tileGuardMargin = 200.0
	// tileInset keeps APs this far inside their tile's square, leaving
	// room for client scatter (≤40 m) and mobility boxes (±40 m)
	// without ever leaving the tile.
	tileInset = 50.0
)

// DenseCityTiled executes the tiled-metro dense city on the sharded
// parallel engine and returns both the metrics and a canonical digest
// of the run — a byte-stable rendition of every BSS's channel,
// switches, delivered payload and per-flow telemetry plus the
// aggregate metrics, which the equivalence tests compare verbatim
// across shard and worker counts.
//
// cfg.Tiles fixes the geometry (values below 1 select 1); cfg.Shards
// and cfg.Workers only choose the execution schedule.
func DenseCityTiled(cfg DenseCityConfig) (DenseCityResult, string) {
	if cfg.Tiles < 1 {
		cfg.Tiles = 1
	}
	r := buildCity(cfg)
	r.advanceTo(r.end)
	return r.finish(), r.digest
}

// ShardedCityTable sweeps the tiled city across shard counts at a
// fixed seed and scale: one row per shard count, with the wall-clock
// speedup over the 1-shard serial schedule and whether the digest
// matched the serial reference byte-for-byte (it must — the
// equivalence harness pins the same invariant; the column makes a
// violation visible in the rendered table too). reps repeats each cell
// and keeps the best wall clock. Domain metrics are omitted: every row
// reproduces the 1-shard row's digest, so they carry no information.
func ShardedCityTable(reps int) *trace.Table {
	if reps < 1 {
		reps = 1
	}
	t := &trace.Table{
		Title:   "ShardedCity: 16-BSS tiled city, identical results at every shard count (speedup needs cores)",
		Headers: []string{"shards", "workers", "wall(s)", "speedup", "digest"},
	}
	cfg := DenseCityConfig{
		APs: 16, Tiles: 8, Seed: 4242,
		Settle: 2 * time.Second, Measure: 8 * time.Second,
	}
	var refWall time.Duration
	var refDigest string
	for _, shards := range []int{1, 2, 4, 8} {
		cfg.Shards = shards
		wall := time.Duration(0)
		var digest string
		for rep := 0; rep < reps; rep++ {
			r, dg := DenseCityTiled(cfg)
			digest = dg
			if rep == 0 || r.WallClock < wall {
				wall = r.WallClock
			}
		}
		match := "ref"
		if shards == 1 {
			refWall, refDigest = wall, digest
		} else if digest == refDigest {
			match = "equal"
		} else {
			match = "DIVERGED"
		}
		t.AddRow(fmt.Sprintf("%d", shards),
			fmt.Sprintf("%d", runtime.GOMAXPROCS(0)),
			fmt.Sprintf("%.2f", wall.Seconds()),
			fmt.Sprintf("%.2fx", refWall.Seconds()/wall.Seconds()),
			match)
	}
	return t
}
