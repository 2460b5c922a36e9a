package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"

	"whitefi/internal/assign"
	"whitefi/internal/dynamics"
	"whitefi/internal/incumbent"
	"whitefi/internal/mac"
	"whitefi/internal/obs"
	"whitefi/internal/phy"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
	"whitefi/internal/spectrum"
	"whitefi/internal/trace"
	"whitefi/internal/traffic"
)

// DenseCity is the city-scale dense-deployment scenario: hundreds of
// WhiteFi BSSs scattered over square kilometers of log-distance medium,
// each serving CBR downlink traffic, with Markov microphones keying up
// across the band. It is the regime WhiteFi's variable-width MCham
// assignment targets (many networks contending for fragmented white
// space) at the node counts the mmWave ad-hoc literature evaluates —
// and the workload the medium's spatial interference culling exists
// for: every launch fans out to the interference neighborhood instead
// of the whole city.

// DenseCityConfig parameterizes one dense-deployment world.
type DenseCityConfig struct {
	// APs is the number of access points (N). Each AP brings
	// ClientsPerAP clients, so the node count is APs*(1+ClientsPerAP).
	APs int
	// ClientsPerAP is M; 0 selects 2.
	ClientsPerAP int
	// DensityPerKm2 is the AP density; the world side length follows
	// from APs/DensityPerKm2. 0 selects 24 AP/km² (≈200 m spacing, a
	// dense urban deployment).
	DensityPerKm2 float64
	// Seed drives placement, initial channels and mic schedules.
	Seed int64
	// Settle is the warm-up before MCham assignment; 0 selects 2 s.
	Settle time.Duration
	// Measure is the measurement window after assignment; 0 selects 8 s.
	Measure time.Duration
	// MicDuty is the Markov mic duty cycle on every free channel; 0
	// selects 0.08. Negative disables mics.
	MicDuty float64
	// TrafficInterval is the (mean) inter-packet delay per client flow
	// (1000-byte packets); 0 selects 25 ms.
	TrafficInterval time.Duration
	// Traffic lists the flow models cycled over client flows; empty
	// selects pure CBR, which is schedule-identical to the
	// pre-traffic-engine scenario.
	Traffic []traffic.Model
	// UplinkFrac is the probability a flow is reversed client -> AP
	// (drawn from its own seeded RNG, so 0 leaves placement untouched).
	UplinkFrac float64
	// QueueLimit bounds each AP's egress queue; 0 keeps the MAC default.
	QueueLimit int
	// AssignPeriod is how often each AP re-evaluates its channel with
	// the hysteresis selector; 0 selects 4 s.
	AssignPeriod time.Duration
	// Tiles, when positive, lays the city out as Tiles guard-spaced city
	// tiles instead of one continuous square, run on the sharded
	// parallel engine (see DenseCityTiled). The tile count fixes the
	// geometry; vary Shards and Workers freely — results are
	// byte-identical across both. Zero keeps the continuous city on the
	// serial engine.
	Tiles int
	// Shards is the number of execution shards the tiled city runs on
	// (contiguous runs of tiles per shard). Zero selects one shard per
	// tile; values above Tiles are clamped. Only meaningful with
	// Tiles > 0.
	Shards int
	// Workers bounds the OS threads advancing shards in parallel; zero
	// selects GOMAXPROCS. Wall clock only — never results.
	Workers int
	// Mobility, in the tiled layout, walks every client on a seeded
	// random-waypoint trajectory around its AP (per-tile epoch
	// updaters), so the equivalence artifact covers moving worlds too.
	Mobility bool
	// Obs, when non-nil, is attached to the run's engine: the standard
	// subsystem metrics are registered, assignment rounds are traced
	// (span "assign.evaluate", event "bss.switch", histogram
	// "assign.mcham"), and snapshots emit per the observer's Period to
	// its Out. Snapshot bytes are a pure function of the config, so
	// they are byte-identical across harness worker counts.
	Obs *obs.Observer
}

// withDefaults fills the zero-valued fields.
func (c DenseCityConfig) withDefaults() DenseCityConfig {
	if c.ClientsPerAP == 0 {
		c.ClientsPerAP = 2
	}
	if c.DensityPerKm2 == 0 {
		c.DensityPerKm2 = 24
	}
	if c.Settle == 0 {
		c.Settle = 2 * time.Second
	}
	if c.Measure == 0 {
		c.Measure = 8 * time.Second
	}
	if c.MicDuty == 0 {
		c.MicDuty = 0.08
	}
	if c.MicDuty < 0 {
		c.MicDuty = 0
	}
	if c.TrafficInterval == 0 {
		c.TrafficInterval = 25 * time.Millisecond
	}
	if c.AssignPeriod == 0 {
		c.AssignPeriod = 4 * time.Second
	}
	if c.Tiles < 0 {
		c.Tiles = 0
	}
	return c
}

// DenseCityResult is the outcome of one dense-deployment run.
type DenseCityResult struct {
	APs     int
	Nodes   int     // APs + clients on the medium
	AreaKm2 float64 // world area
	// Tiles and Shards echo the tiled-variant execution shape (zero on
	// the continuous city): how many guard-spaced tiles the metro was
	// split into, and how many parallel shards actually ran it.
	Tiles  int
	Shards int
	// GoodputMbps is the aggregate delivered downlink payload rate
	// across every BSS over the measurement window.
	GoodputMbps float64
	// MChamQuality is the mean over APs of MCham(operating channel) /
	// MCham(best local channel), each evaluated against the AP's own
	// end-of-run observation: 1.0 means every AP sits on its locally
	// optimal channel, lower values measure assignment staleness.
	MChamQuality float64
	// InterferenceFreeFrac is the fraction of (BSS, sample) points
	// whose operating channel had no active microphone.
	InterferenceFreeFrac float64
	// SwitchesPerBSS is the mean number of channel switches per BSS
	// over the measurement window (initial assignment excluded).
	SwitchesPerBSS float64
	// FlowDelayP50Ms / FlowDelayP95Ms are medians across all client
	// flows of each flow's own p50 / p95 delivery delay (ms), over the
	// whole run (settle included — flows start at t=0).
	FlowDelayP50Ms float64
	FlowDelayP95Ms float64
	// FlowDropRate is total egress-queue drops over total generated
	// packets across all flows.
	FlowDropRate float64
	// WallClock is the host time the run took — the scaling headline.
	WallClock time.Duration
}

// denseCityIDBase spaces BSS ids well clear of the other scenarios'.
const denseCityIDBase = 10000

// denseBSS is one AP with its clients, flows, and assignment state, in
// the tile that hosts it.
type denseBSS struct {
	tile     *cityTile
	ap       *mac.Node
	clients  []*mac.Node
	flows    []*traffic.Flow
	ids      map[int]bool // all member ids, for observation exclusion
	sel      assign.Selector
	switches int
	// lastRx snapshots acknowledged payload per member node (AP first,
	// then clients) so goodput covers uplink senders too; for the
	// default downlink-only traffic only the AP entry ever moves.
	lastRx []int64
}

// snapshotRx records every member's acknowledged-payload counter.
func (b *denseBSS) snapshotRx() {
	b.lastRx = b.lastRx[:0]
	b.lastRx = append(b.lastRx, b.ap.Stats.PayloadRxOK)
	for _, cl := range b.clients {
		b.lastRx = append(b.lastRx, cl.Stats.PayloadRxOK)
	}
}

// deliveredSince sums members' acknowledged payload since snapshotRx.
func (b *denseBSS) deliveredSince() int64 {
	var d int64
	d += b.ap.Stats.PayloadRxOK - b.lastRx[0]
	for i, cl := range b.clients {
		d += cl.Stats.PayloadRxOK - b.lastRx[1+i]
	}
	return d
}

// retune moves the whole BSS to ch.
func (b *denseBSS) retune(ch spectrum.Channel) {
	b.ap.Retune(ch)
	for _, cl := range b.clients {
		cl.Retune(ch)
	}
}

// runAfterTies schedules fn at virtual time t so it fires after every
// other event at exactly t: the wrapper yields (reschedules itself at
// the current instant, which places it behind everything queued there)
// until no earlier-scheduled event shares the instant. This reproduces
// byte-for-byte the ordering of the pre-session host loops, which ran
// their work after RunUntil(t) had drained every event at ≤ t — the
// property the absolute goodput pins (TestDenseCityTrafficDefault-
// Unchanged) hold the refactor to. At most one runAfterTies event may
// occupy a given instant on a given engine: two would yield to each
// other forever.
func runAfterTies(eng *sim.Engine, t time.Duration, fn func()) {
	var wrapped func()
	wrapped = func() {
		if next, ok := eng.NextAt(); ok && next == eng.Now() {
			eng.Schedule(eng.Now(), wrapped)
			return
		}
		fn()
	}
	eng.Schedule(t, wrapped)
}

// cityTile is one tile's execution context: the world (engine and
// medium) that hosts it, the box its APs are placed in, the mic set its
// selectors consult, and its MCham histogram. The continuous city is a
// single tile covering the whole square.
type cityTile struct {
	idx, shard int
	world      *world
	aps        int     // APs placed in the tile at build
	x0, y0     float64 // placement box corner
	span       float64 // placement box side
	micMap     func() spectrum.Map
	hist       *obs.Hist // nil without an observer
}

// cityEngine is what a city run needs of its engine: a *sim.Engine on
// the continuous city, a *sim.ShardedEngine on the tiled one.
type cityEngine interface {
	RunUntil(time.Duration)
	Now() time.Duration
	DigestState(io.Writer)
	PendingCount() int
}

// cityRun is one dense city mid-flight, continuous or tiled: every
// stage of the run is pre-scheduled on the engine at build, so the run
// can be advanced to any virtual time, digested, checkpointed, and
// resumed with no behavioral seam. Built by buildCity; advanced by
// advanceTo; summarized once by finish.
type cityRun struct {
	cfg   DenseCityConfig
	start time.Time
	eng   cityEngine
	// coord is the coordinator engine: the settle round, mic sampling
	// and snapshots run there. On the continuous city it is the one
	// world's engine; on the tiled city every shard is paused at the
	// same instant while it runs.
	coord  *sim.Engine
	shards int // execution shards; 0 on the continuous city
	worlds []*world
	tiles  []*cityTile
	bss    []*denseBSS
	flows  int // flows built so far, which numbers the next one
	free   []spectrum.UHF
	end    time.Duration

	// mics is the coordinator's mic set — sampled, observed and used by
	// finish — and micMap its occupancy; acts drives every mic set and
	// walkers move the tiled city's clients.
	mics    []*incumbent.Mic
	micMap  func() spectrum.Map
	acts    []*dynamics.Activity
	walkers []*dynamics.Updater

	freeSamples, totalSamples int64

	trc              *obs.Tracer // continuous city with an observer only
	evalID, switchID obs.SpanID

	wallRun, wallSummarize *obs.Phase

	finished bool
	result   DenseCityResult
	digest   string // canonical digest; tiled city only
}

// DenseCityRun executes one dense-deployment world and reports its
// metrics. The run is deterministic per config (placement, channels and
// mic schedules all derive from Seed).
//
// Shape: N APs are placed by a seeded binomial point process (a Poisson
// process conditioned on its count) over a square sized for
// DensityPerKm2; clients scatter within association range of their AP.
// Every BSS starts on a seeded random free channel and carries CBR
// downlink traffic. From the end of the settle window on, each AP
// re-runs a hysteresis-selector round (assign.Selector) every
// AssignPeriod on its own staggered phase, against its own
// position-dependent observation (radio.TrueAirtime with the AP as
// observer, own-BSS traffic excluded, fused with the live mic map),
// and retunes its BSS on a switch — distributed MCham assignment
// without the core AP state machine, so the run isolates medium scale
// and assignment quality rather than protocol dynamics (MicChurn
// covers those). With cfg.Tiles > 0 the same city runs tiled (see
// DenseCityTiled).
func DenseCityRun(cfg DenseCityConfig) DenseCityResult {
	r := buildCity(cfg)
	r.advanceTo(r.end)
	return r.finish()
}

// buildCity constructs the world and pre-schedules every stage of the
// run — the settle-time assignment round, the staggered periodic
// re-evaluations, and the mic-occupancy sampling — as engine events,
// so a run is build + advance + finish and a checkpoint can pause it
// at any instant in between. Only layout chooses between the
// continuous and the tiled city; everything here is shared.
func buildCity(cfg DenseCityConfig) *cityRun {
	cfg = cfg.withDefaults()
	r := &cityRun{cfg: cfg, start: time.Now(), end: cfg.Settle + cfg.Measure}

	// Optional observability: wall phases bracket the host-side stages
	// (strictly outside the deterministic snapshot stream).
	var wallBuild *obs.Phase
	if cfg.Obs != nil && cfg.Obs.Wall != nil {
		wallBuild = cfg.Obs.Wall.Phase("build")
		r.wallRun = cfg.Obs.Wall.Phase("run")
		r.wallSummarize = cfg.Obs.Wall.Phase("summarize")
		wallBuild.Start()
	}

	base := incumbent.SimulationBaseMap()
	r.free = base.FreeChannels()
	r.layout(base)

	// Placement, channels and traffic: one host-side seeded stream in
	// fixed tile order (shard-count independent by construction). Flow
	// specs come from traffic.Mix (its own RNG stream), so the default
	// (pure CBR downlink) leaves the placement stream — and therefore
	// the whole run — identical to the pre-traffic-engine scenario.
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := traffic.Mix{
		Models:     cfg.Traffic,
		UplinkFrac: cfg.UplinkFrac,
		Seed:       cfg.Seed,
		Base:       r.baseSpec(),
	}.Specs(cfg.APs * cfg.ClientsPerAP)
	for _, tl := range r.tiles {
		var upd *dynamics.Updater
		if cfg.Mobility && r.shards > 0 {
			upd = dynamics.NewUpdater(tl.world.eng, tl.world.air, 0)
		}
		for i := 0; i < tl.aps; i++ {
			r.addBSS(tl, rng, specs[r.flows:r.flows+cfg.ClientsPerAP], upd)
		}
		if upd != nil {
			upd.Start()
			r.walkers = append(r.walkers, upd)
		}
	}
	for _, a := range r.acts {
		a.Start()
	}
	if r.shards > 1 {
		r.verifyPartition()
	}
	r.observe()

	// Settle, one unconditional assignment for everyone (on the
	// coordinator, after every other event at the instant), then
	// staggered periodic re-evaluation: AP i re-runs its selector every
	// AssignPeriod at phase i/N on its own tile's engine — the
	// desynchronised probing of real independent APs, which lets each
	// AP see its neighbors' moves instead of the whole city
	// re-optimising against a stale snapshot in lockstep.
	runAfterTies(r.coord, cfg.Settle, func() {
		for _, b := range r.bss {
			r.evaluate(b, false)
		}
		for _, b := range r.bss {
			b.snapshotRx()
		}
	})
	for i, b := range r.bss {
		b := b
		phase := cfg.AssignPeriod * time.Duration(i) / time.Duration(len(r.bss))
		for t := cfg.Settle + cfg.AssignPeriod + phase; t < r.end; t += cfg.AssignPeriod {
			b.tile.world.eng.Schedule(t, func() { r.evaluate(b, true) })
		}
	}

	// Measurement window: sample mic occupancy of each operating
	// channel as the Markov schedules churn. On the tiled city each
	// sample bounds a conservative window at its instant, exactly as a
	// host RunUntil deadline would.
	for t := cfg.Settle + denseCitySampleStep; t <= r.end; t += denseCitySampleStep {
		runAfterTies(r.coord, t, r.sampleMics)
	}
	if wallBuild != nil {
		wallBuild.Stop()
		r.wallRun.Start()
	}
	return r
}

// layout makes every choice that depends on the city's layout, from
// cfg.Tiles (0 means continuous): one engine or a sharded engine with a
// world per shard, the tiles and their placement boxes (the full square,
// or inset, guard-spaced tiles in a row), and the mic sets (the
// coordinator's only, or one replica more per shard). The per-node RNG,
// walkers and observer registration follow from r.shards.
func (r *cityRun) layout(base spectrum.Map) {
	cfg := r.cfg
	if cfg.Tiles == 0 {
		w := spatialWorld(cfg.Seed)
		r.eng, r.coord, r.worlds = w.eng, w.eng, []*world{w}
		r.mics, r.micMap = r.newMics(w.eng, base)
		side := math.Sqrt(float64(cfg.APs)/cfg.DensityPerKm2) * 1000
		r.tiles = []*cityTile{{world: w, aps: cfg.APs, span: side, micMap: r.micMap}}
		return
	}
	r.shards = cfg.Shards
	if r.shards < 1 || r.shards > cfg.Tiles {
		r.shards = cfg.Tiles
	}
	prop := mac.LogDistance{}
	se := sim.NewSharded(cfg.Seed, r.shards)
	se.Workers = cfg.Workers
	r.eng, r.coord = se, se.Global()
	r.mics, r.micMap = r.newMics(se.Global(), base)
	micMaps := make([]func() spectrum.Map, r.shards)
	for s := range micMaps {
		eng := se.Shard(s)
		air := mac.NewAir(eng)
		air.Retention = historyRetention
		air.Prop = prop
		air.PruneClock = se.Floor
		r.worlds = append(r.worlds, &world{eng: eng, air: air})
		_, micMaps[s] = r.newMics(eng, base)
	}

	// Every tile is a square sized for the mean per-tile AP count at the
	// configured density, its APs inset from the edges (room for client
	// scatter and walkers), with a guard strip between consecutive
	// tiles; tile t runs on shard t*S/T.
	side := math.Sqrt(float64(cfg.APs)/float64(cfg.Tiles)/cfg.DensityPerKm2) * 1000
	inset := tileInset
	if side <= 4*inset {
		inset = side / 4
	}
	guard := 2*mac.InteractionRange(prop, mac.DefaultTxPowerDBm) + tileGuardMargin
	pitch := side + guard
	for t := 0; t < cfg.Tiles; t++ {
		s := t * r.shards / cfg.Tiles
		tl := &cityTile{idx: t, shard: s, world: r.worlds[s], aps: cfg.APs / cfg.Tiles,
			x0: float64(t)*pitch + inset, y0: inset, span: side - 2*inset, micMap: micMaps[s]}
		if t < cfg.APs%cfg.Tiles {
			tl.aps++
		}
		r.tiles = append(r.tiles, tl)
	}
}

// newMics builds one mic set on eng: a Markov mic per free channel,
// each on its own seeded schedule (audible city-wide; spatially scoped
// incumbents are the Station model, exercised by the spatial
// scenarios). incumbent.Mic never touches a medium and each
// dynamics.Activity owns its RNG, so replicas on different engines
// realise the same schedule. It returns the set and its occupancy map.
func (r *cityRun) newMics(eng *sim.Engine, base spectrum.Map) ([]*incumbent.Mic, func() spectrum.Map) {
	var mics []*incumbent.Mic
	if r.cfg.MicDuty > 0 {
		for i, u := range r.free {
			m := incumbent.NewMic(eng, u)
			mics = append(mics, m)
			r.acts = append(r.acts, dynamics.NewDutyActivity(eng, m, r.cfg.MicDuty, micChurnCycle, r.cfg.Seed*1009+int64(i)*613))
		}
	}
	return mics, func() spectrum.Map {
		m := base
		for _, mic := range mics {
			if mic.Active() {
				m = m.SetOccupied(mic.Channel)
			}
		}
		return m
	}
}

// baseSpec is the flow shape every city flow spec starts from.
func (r *cityRun) baseSpec() traffic.Spec {
	return traffic.Spec{Bytes: 1000, Interval: r.cfg.TrafficInterval}
}

// addBSS builds one BSS in tile tl and appends it to the run: an AP at
// a uniform point of the tile's placement box on a random free channel,
// one client per spec 10–40 m away (deep inside decode range), and a
// started flow per client. upd, when non-nil, walks the clients on
// seeded random-waypoint trajectories around the AP.
func (r *cityRun) addBSS(tl *cityTile, rng *rand.Rand, specs []traffic.Spec, upd *dynamics.Updater) *denseBSS {
	apID := denseCityIDBase + len(r.bss)*(r.cfg.ClientsPerAP+1)
	apPos := mac.Position{X: tl.x0 + rng.Float64()*tl.span, Y: tl.y0 + rng.Float64()*tl.span}
	ch := spectrum.Chan(r.free[rng.Intn(len(r.free))], spectrum.W5)
	b := &denseBSS{tile: tl, ids: map[int]bool{apID: true}}
	b.ap = r.newNode(tl, apID, ch, true, apPos)
	if r.cfg.QueueLimit > 0 {
		b.ap.SetQueueLimit(r.cfg.QueueLimit)
	}
	for c, spec := range specs {
		id := apID + 1 + c
		ang := rng.Float64() * 2 * math.Pi
		d := 10 + rng.Float64()*30
		pos := mac.Position{X: apPos.X + d*math.Cos(ang), Y: apPos.Y + d*math.Sin(ang)}
		cl := r.newNode(tl, id, ch, false, pos)
		b.clients = append(b.clients, cl)
		b.ids[id] = true
		sender, receiver := traffic.Orient(spec, b.ap, cl)
		f := traffic.NewFlow(tl.world.eng, r.flows, spec, sender, receiver)
		f.Start()
		b.flows = append(b.flows, f)
		r.flows++
		if upd != nil {
			upd.Track(id, &dynamics.RandomWaypoint{
				Seed:     r.cfg.Seed*7919 + int64(id)*104729,
				Min:      mac.Position{X: apPos.X - 40, Y: apPos.Y - 40},
				Max:      mac.Position{X: apPos.X + 40, Y: apPos.Y + 40},
				SpeedMin: 0.5,
				SpeedMax: 1.5,
				Pause:    2 * time.Second,
				Start:    pos,
			}, nil)
		}
	}
	r.bss = append(r.bss, b)
	return b
}

// newNode puts one node on tile tl's medium at pos. On the tiled city
// every node draws backoff from its own RandFor stream, identical on
// any shard, so draws do not depend on who else shares its engine; the
// continuous city keeps the shared engine stream.
func (r *cityRun) newNode(tl *cityTile, id int, ch spectrum.Channel, isAP bool, pos mac.Position) *mac.Node {
	n := mac.NewNode(tl.world.eng, tl.world.air, id, ch, isAP)
	n.SetPosition(pos)
	if r.shards > 0 {
		n.SetRand(tl.world.eng.RandFor(id))
	}
	return n
}

// nodes lists the APs and clients of tile tl, or of every tile when tl
// is nil.
func (r *cityRun) nodes(tl *cityTile) []*mac.Node {
	var ns []*mac.Node
	for _, b := range r.bss {
		if tl == nil || b.tile == tl {
			ns = append(ns, b.ap)
			ns = append(ns, b.clients...)
		}
	}
	return ns
}

// allFlows lists every BSS's flows in BSS order.
func (r *cityRun) allFlows() []*traffic.Flow {
	var fs []*traffic.Flow
	for _, b := range r.bss {
		fs = append(fs, b.flows...)
	}
	return fs
}

// airs lists the run's media, one per world.
func (r *cityRun) airs() []*mac.Air {
	airs := make([]*mac.Air, len(r.worlds))
	for i, w := range r.worlds {
		airs[i] = w.air
	}
	return airs
}

// verifyPartition is the tiled city's partition tripwire: a geometry
// bug would not crash — it would silently make results depend on the
// shard count, which is exactly the failure mode the equivalence
// harness exists to catch. Fail fast instead.
func (r *cityRun) verifyPartition() {
	var pos []mac.Position
	var groups []int
	for _, tl := range r.tiles {
		for _, n := range r.nodes(tl) {
			pos = append(pos, n.Position())
			groups = append(groups, tl.shard)
		}
	}
	if i, j, ok := mac.VerifyPartition(pos, mac.DefaultTxPowerDBm, mac.LogDistance{}, groups); !ok {
		panic(fmt.Sprintf("exp: tiled city partition unsound: nodes %d and %d are cross-shard yet within interaction range", i, j))
	}
}

// cityObsWindow is the trailing window of localObservation; the
// airtime gauges reuse it so /metrics and the selector see the same
// horizon.
const cityObsWindow = 1 * time.Second

// observe wires cfg.Obs, with snapshots on the coordinator so every
// read lands at a barrier. The continuous city registers its engine,
// medium, airtime and MAC metrics whole, plus the assignment spans. The
// tiled city registers only what is shard-invariant: medium counters
// summed over the shard media (physical outcomes only), and MAC
// aggregates and MCham histograms per tile ("tileNN.*" names exist
// whichever engine hosts the tile); engine metrics stay out, since
// the coordinator's barrier bookkeeping and the per-shard mic replicas
// make event counts vary with the shard count. Both add aggregate flow
// totals (per-flow counters would mean thousands of metrics here) and
// the active mic count.
func (r *cityRun) observe() {
	o := r.cfg.Obs
	if o == nil {
		return
	}
	o.Attach(r.coord)
	if r.shards == 0 {
		w := r.worlds[0]
		obs.RegisterEngine(o.Reg, w.eng)
		obs.RegisterAir(o.Reg, w.air)
		obs.RegisterAirtime(o.Reg, w.air, cityObsWindow, r.free)
		obs.RegisterNodes(o.Reg, "mac", r.nodes(nil))
		r.tiles[0].hist = o.Reg.Hist("assign.mcham")
		r.trc = o.Tracer()
		r.evalID = r.trc.ID("assign.evaluate")
		r.switchID = r.trc.ID("bss.switch")
	} else {
		obs.RegisterAirs(o.Reg, r.airs())
		for _, tl := range r.tiles {
			obs.RegisterNodes(o.Reg, fmt.Sprintf("tile%02d.mac", tl.idx), r.nodes(tl))
			tl.hist = o.Reg.Hist(fmt.Sprintf("tile%02d.assign.mcham", tl.idx))
		}
	}
	obs.RegisterFlowTotals(o.Reg, r.allFlows())
	o.Reg.GaugeFunc("incumbent.active_mics", func() float64 {
		n := 0
		for _, m := range r.mics {
			if m.Active() {
				n++
			}
		}
		return float64(n)
	})
	o.Start()
}

// localObservation is the AP's own view of the spectrum: airtime and AP
// counts as received at its position on its tile's medium over the
// trailing window, own BSS excluded, fused with the mic map m. The
// window is long enough to average CBR burstiness into a stable
// airtime estimate — with a short one every observation is a fresh
// roll of the dice and hysteresis cannot hold. Spatial culling makes
// remote tiles contribute exactly zero.
func (r *cityRun) localObservation(b *denseBSS, now time.Duration, m spectrum.Map) assign.Observation {
	from := now - cityObsWindow
	if from < 0 {
		from = 0
	}
	src := &radio.TrueAirtime{Air: b.tile.world.air, Exclude: b.ids, Observer: b.ap.ID}
	return radio.Observe(src, m, from, now, -1)
}

// evaluate runs one AP's hysteresis-selector round against its tile's
// mic set. The first round (empty selector state) assigns
// unconditionally; later rounds switch only past the hysteresis margin
// or when a mic lands on the operating channel (Selector's involuntary
// path).
func (r *cityRun) evaluate(b *denseBSS, countSwitches bool) {
	now := b.tile.world.eng.Now()
	sel, switched := b.sel.Evaluate(r.localObservation(b, now, b.tile.micMap()), nil)
	if b.tile.hist != nil && sel.OK {
		b.tile.hist.Observe(sel.Metric)
	}
	if r.trc != nil {
		r.trc.Span(r.evalID, now, int64(b.ap.ID))
	}
	if !switched || !sel.OK || sel.Channel == b.ap.Channel() {
		return
	}
	b.retune(sel.Channel)
	if r.trc != nil {
		r.trc.Event(r.switchID, int64(b.ap.ID))
	}
	if countSwitches {
		b.switches++
	}
}

// denseCitySampleStep is the mic-occupancy sampling cadence of the
// measurement window.
const denseCitySampleStep = 250 * time.Millisecond

// sampleMics takes one mic-occupancy sample across every BSS against
// the coordinator's mic set.
func (r *cityRun) sampleMics() {
	for _, b := range r.bss {
		r.totalSamples++
		hit := false
		for _, mic := range r.mics {
			if mic.Active() && b.ap.Channel().Contains(mic.Channel) {
				hit = true
				break
			}
		}
		if !hit {
			r.freeSamples++
		}
	}
}

// advanceTo runs the world to virtual time t (clamped to the run's
// end; never backwards). Every scenario stage is an engine event, so
// advancing in any number of steps is byte-identical to advancing in
// one — the property the checkpoint replay tests pin.
func (r *cityRun) advanceTo(t time.Duration) {
	if t > r.end {
		t = r.end
	}
	r.eng.RunUntil(t)
}

// now returns the run's current virtual time (the coordinator clock).
func (r *cityRun) now() time.Duration { return r.eng.Now() }

// finish summarizes the completed run, plus the canonical digest on
// the tiled city. Memoized: the first call stops the walkers,
// generators and the observer and computes the metrics; later calls
// return the same result.
func (r *cityRun) finish() DenseCityResult {
	if r.finished {
		return r.result
	}
	r.finished = true
	cfg := r.cfg
	if r.wallRun != nil {
		r.wallRun.Stop()
		r.wallSummarize.Start()
	}

	var bits float64
	for _, b := range r.bss {
		bits += float64(b.deliveredSince()) * 8
	}
	m := r.micMap()
	var quality float64
	var switches int
	for _, b := range r.bss {
		switches += b.switches
		o := r.localObservation(b, r.end, m)
		cur := assign.MCham(o, b.ap.Channel())
		best := cur
		for _, c := range spectrum.AllChannels() {
			if o.Map.ChannelFree(c) {
				if v := assign.MCham(o, c); v > best {
					best = v
				}
			}
		}
		if best > 0 {
			quality += cur / best
		} else {
			quality++ // nothing is free anywhere: the AP is trivially optimal
		}
	}
	for _, u := range r.walkers {
		u.Stop()
	}
	for _, a := range r.acts {
		a.Stop()
	}
	ifree := 1.0
	if r.totalSamples > 0 {
		ifree = float64(r.freeSamples) / float64(r.totalSamples)
	}
	// Per-flow telemetry: medians across flows of each flow's sketch
	// estimates, and the city-wide drop rate.
	var p50s, p95s []float64
	var generated, dropped int
	for _, b := range r.bss {
		for _, f := range b.flows {
			f.Stop()
			p50s = append(p50s, f.Tel.DelayP50().Seconds()*1e3)
			p95s = append(p95s, f.Tel.DelayP95().Seconds()*1e3)
			generated += f.Tel.Generated
			dropped += f.Tel.QueueDropped
		}
	}
	dropRate := 0.0
	if generated > 0 {
		dropRate = float64(dropped) / float64(generated)
	}
	if r.shards > 0 {
		r.digest = r.tiledDigest() + fmt.Sprintf("sum bits=%.0f quality=%.9f ifree=%d/%d switches=%d drop=%.9f\n",
			bits, quality, r.freeSamples, r.totalSamples, switches, dropRate)
	}
	if r.wallRun != nil {
		r.wallSummarize.Stop()
	}
	if cfg.Obs != nil {
		cfg.Obs.Stop()
		cfg.Obs.Flush()
	}
	r.result = DenseCityResult{
		APs:                  cfg.APs,
		Nodes:                cfg.APs * (1 + cfg.ClientsPerAP),
		AreaKm2:              float64(cfg.APs) / cfg.DensityPerKm2,
		Tiles:                cfg.Tiles,
		Shards:               r.shards,
		GoodputMbps:          bits / cfg.Measure.Seconds() / 1e6,
		MChamQuality:         quality / float64(cfg.APs),
		InterferenceFreeFrac: ifree,
		SwitchesPerBSS:       float64(switches) / float64(cfg.APs),
		FlowDelayP50Ms:       trace.Median(p50s),
		FlowDelayP95Ms:       trace.Median(p95s),
		FlowDropRate:         dropRate,
		WallClock:            time.Since(r.start),
	}
	return r.result
}

// tiledDigest renders every BSS's channel, switches, delivered payload
// and per-flow telemetry, and the medium counters summed across shards
// (per-tile physical outcomes are disjoint, so the totals are
// shard-invariant even though the per-medium split is not).
func (r *cityRun) tiledDigest() string {
	cfg := r.cfg
	var dg strings.Builder
	fmt.Fprintf(&dg, "tiledcity seed=%d aps=%d tiles=%d clients=%d mobility=%t settle=%s measure=%s\n",
		cfg.Seed, cfg.APs, cfg.Tiles, cfg.ClientsPerAP, cfg.Mobility, cfg.Settle, cfg.Measure)
	for i, b := range r.bss {
		fmt.Fprintf(&dg, "bss %d tile=%d ch=%s sw=%d rx=%d", i, b.tile.idx, b.ap.Channel(), b.switches, b.ap.Stats.PayloadRxOK)
		for _, cl := range b.clients {
			fmt.Fprintf(&dg, ",%d", cl.Stats.PayloadRxOK)
		}
		for _, f := range b.flows {
			fmt.Fprintf(&dg, " f%d=%d/%d/%d/%s/%s", f.ID, f.Tel.Generated, f.Tel.Delivered,
				f.Tel.QueueDropped+f.Tel.RequestDropped, f.Tel.DelayP50(), f.Tel.DelayP95())
		}
		dg.WriteByte('\n')
	}
	var ac mac.AirCounters
	for _, a := range r.airs() {
		c := &a.Counters
		ac.Launches += c.Launches
		ac.Delivered += c.Delivered
		ac.Collisions += c.Collisions
		ac.BelowFloor += c.BelowFloor
		ac.HalfDuplex += c.HalfDuplex
	}
	fmt.Fprintf(&dg, "air launches=%d delivered=%d collisions=%d below=%d half=%d\n",
		ac.Launches, ac.Delivered, ac.Collisions, ac.BelowFloor, ac.HalfDuplex)
	return dg.String()
}

// DenseCityMediumLoad drives a dense-city transmission load through the
// raw air medium — no DCF state machine, no traffic generators — and
// returns the number of delivered data frames. It is the benchmark
// harness isolating exactly what spatial culling changes: the launch
// fan-out, the delivery fan-out, and the interference scan, at a fixed
// 1000+-node scale. Each AP fires a unicast data frame at a client
// every 10 ms (the client's MAC answers with a real ACK) and a beacon
// plus the WhiteFi CTS-to-self every 100 ms (both broadcast, the
// expensive fan-out), for one virtual second. Deliveries are identical
// with and without culling; only the wall clock differs.
func DenseCityMediumLoad(aps int, seed int64, brute bool) int64 {
	const (
		clientsPerAP = 2
		densityKm2   = 24.0
		dataInterval = 10 * time.Millisecond
		beaconEvery  = 100 * time.Millisecond
		run          = 1 * time.Second
	)
	rng := rand.New(rand.NewSource(seed))
	w := spatialWorld(seed)
	w.air.NoCull = brute
	sideM := math.Sqrt(float64(aps)/densityKm2) * 1000
	free := incumbent.SimulationBaseMap().FreeChannels()

	type pair struct {
		ap  *mac.Node
		cls []*mac.Node
	}
	pairs := make([]pair, aps)
	for i := range pairs {
		apID := denseCityIDBase + i*(clientsPerAP+1)
		apPos := mac.Position{X: rng.Float64() * sideM, Y: rng.Float64() * sideM}
		ch := spectrum.Chan(free[rng.Intn(len(free))], spectrum.W5)
		p := pair{ap: mac.NewNode(w.eng, w.air, apID, ch, true)}
		p.ap.SetPosition(apPos)
		for c := 0; c < clientsPerAP; c++ {
			cl := mac.NewNode(w.eng, w.air, apID+1+c, ch, false)
			ang := rng.Float64() * 2 * math.Pi
			d := 10 + rng.Float64()*30
			cl.SetPosition(mac.Position{X: apPos.X + d*math.Cos(ang), Y: apPos.Y + d*math.Sin(ang)})
			p.cls = append(p.cls, cl)
		}
		pairs[i] = p
		phase := time.Duration(rng.Int63n(int64(dataInterval)))
		for t := phase; t < run; t += dataInterval {
			at, tgt := t, p.cls[rng.Intn(len(p.cls))].ID
			w.eng.Schedule(at, func() {
				w.air.Transmit(p.ap.ID, p.ap.Channel(), phy.DataFrame(p.ap.ID, tgt, 1000), mac.DefaultTxPowerDBm, true)
			})
		}
		for t := phase; t < run; t += beaconEvery {
			at := t
			w.eng.Schedule(at, func() {
				tx := w.air.Transmit(p.ap.ID, p.ap.Channel(), phy.BeaconFrame(p.ap.ID, nil), mac.DefaultTxPowerDBm, true)
				w.eng.Schedule(tx.End+phy.SIFS(p.ap.Channel().Width), func() {
					w.air.Transmit(p.ap.ID, p.ap.Channel(), phy.CTSFrame(p.ap.ID), mac.DefaultTxPowerDBm, true)
				})
			})
		}
	}
	w.eng.RunUntil(run + 100*time.Millisecond)
	var delivered int64
	for _, p := range pairs {
		for _, cl := range p.cls {
			delivered += int64(cl.Stats.RxData)
		}
	}
	return delivered
}

// denseCitySweepAPs is the default N sweep of the DenseCity table:
// up to 1000+ nodes at the default 3 nodes per BSS.
var denseCitySweepAPs = []int{25, 100, 400}

// DenseCity sweeps the dense-deployment scenario over reps seeds per
// AP count on the parallel harness and returns per-N aggregates.
func DenseCity(reps int) []DenseCityResult {
	cells := make([]DenseCityResult, len(denseCitySweepAPs)*reps)
	runIndexed(len(cells), func(i int) {
		cells[i] = DenseCityRun(DenseCityConfig{
			APs:  denseCitySweepAPs[i/reps],
			Seed: int64(8191 + 257*(i%reps)),
		})
	})
	out := make([]DenseCityResult, len(denseCitySweepAPs))
	for ni := range denseCitySweepAPs {
		agg := DenseCityResult{}
		for r := 0; r < reps; r++ {
			c := cells[ni*reps+r]
			agg.APs, agg.Nodes, agg.AreaKm2 = c.APs, c.Nodes, c.AreaKm2
			agg.GoodputMbps += c.GoodputMbps
			agg.MChamQuality += c.MChamQuality
			agg.InterferenceFreeFrac += c.InterferenceFreeFrac
			agg.SwitchesPerBSS += c.SwitchesPerBSS
			agg.WallClock += c.WallClock
		}
		n := float64(reps)
		agg.GoodputMbps /= n
		agg.MChamQuality /= n
		agg.InterferenceFreeFrac /= n
		agg.SwitchesPerBSS /= n
		agg.WallClock /= time.Duration(reps)
		out[ni] = agg
	}
	return out
}

// denseCityTrafficMixes are the flow populations of the
// traffic-parameterized city sweep: each pure model, then the
// heterogeneous blend with 30% uplink flows.
var denseCityTrafficMixes = []struct {
	name   string
	models []traffic.Model
	uplink float64
}{
	{"cbr", []traffic.Model{traffic.CBR}, 0},
	{"poisson", []traffic.Model{traffic.Poisson}, 0},
	{"burst", []traffic.Model{traffic.Burst}, 0},
	{"web", []traffic.Model{traffic.Web}, 0},
	{"mixed", traffic.Models(), 0.3},
}

// DenseCityTraffic runs the traffic-parameterized city over every
// (mix, AP count) pair, reps seeds each, on the parallel harness, and
// returns per-pair aggregates in sweep order (mix-major).
func DenseCityTraffic(reps int, apCounts []int) []DenseCityResult {
	nc := len(apCounts)
	cells := make([]DenseCityResult, len(denseCityTrafficMixes)*nc*reps)
	runIndexed(len(cells), func(i int) {
		mix := denseCityTrafficMixes[i/(nc*reps)]
		aps := apCounts[i/reps%nc]
		cells[i] = DenseCityRun(DenseCityConfig{
			APs:        aps,
			Seed:       int64(8191 + 257*(i%reps)),
			Traffic:    mix.models,
			UplinkFrac: mix.uplink,
			QueueLimit: 128,
		})
	})
	out := make([]DenseCityResult, len(denseCityTrafficMixes)*nc)
	for p := range out {
		agg := DenseCityResult{}
		for r := 0; r < reps; r++ {
			c := cells[p*reps+r]
			agg.APs, agg.Nodes, agg.AreaKm2 = c.APs, c.Nodes, c.AreaKm2
			agg.GoodputMbps += c.GoodputMbps
			agg.InterferenceFreeFrac += c.InterferenceFreeFrac
			agg.FlowDelayP50Ms += c.FlowDelayP50Ms
			agg.FlowDelayP95Ms += c.FlowDelayP95Ms
			agg.FlowDropRate += c.FlowDropRate
		}
		n := float64(reps)
		agg.GoodputMbps /= n
		agg.InterferenceFreeFrac /= n
		agg.FlowDelayP50Ms /= n
		agg.FlowDelayP95Ms /= n
		agg.FlowDropRate /= n
		out[p] = agg
	}
	return out
}

// DenseCityTrafficTable renders the traffic-parameterized city sweep:
// per-flow delay percentiles and drop rate per mix and scale.
func DenseCityTrafficTable(reps int) *trace.Table {
	return denseCityTrafficTableFor(reps, denseCitySweepAPs)
}

func denseCityTrafficTableFor(reps int, apCounts []int) *trace.Table {
	t := &trace.Table{
		Title:   "DenseCity x traffic mixes: per-flow delay/drop telemetry at city scale",
		Headers: []string{"mix", "aps", "nodes", "goodput(Mbps)", "p50(ms)", "p95(ms)", "drop-rate", "ifree-frac"},
	}
	rows := DenseCityTraffic(reps, apCounts)
	for i, r := range rows {
		t.AddRow(denseCityTrafficMixes[i/len(apCounts)].name,
			fmt.Sprintf("%d", r.APs),
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%.1f", r.GoodputMbps),
			fmt.Sprintf("%.1f", r.FlowDelayP50Ms),
			fmt.Sprintf("%.1f", r.FlowDelayP95Ms),
			fmt.Sprintf("%.3f", r.FlowDropRate),
			fmt.Sprintf("%.3f", r.InterferenceFreeFrac))
	}
	return t
}

// DenseCityTable renders the dense-deployment sweep.
func DenseCityTable(reps int) *trace.Table {
	t := &trace.Table{
		Title:   "DenseCity: N BSSs over km² of log-distance medium, staggered MCham assignment, Markov mics",
		Headers: []string{"aps", "nodes", "area(km2)", "goodput(Mbps)", "mcham-quality", "ifree-frac", "switch/bss"},
	}
	// WallClock stays out of the rendered table: tables are pinned by
	// determinism tests and host timing is not a function of the seed.
	for _, p := range DenseCity(reps) {
		t.AddRow(fmt.Sprintf("%d", p.APs),
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.1f", p.AreaKm2),
			fmt.Sprintf("%.1f", p.GoodputMbps),
			fmt.Sprintf("%.3f", p.MChamQuality),
			fmt.Sprintf("%.3f", p.InterferenceFreeFrac),
			fmt.Sprintf("%.2f", p.SwitchesPerBSS))
	}
	return t
}
