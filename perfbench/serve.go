package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/server"
)

// pollEvery is the client's status-poll interval while it waits for a
// fork or a restore to become ready.
const pollEvery = 25 * time.Millisecond

// serveProbes is the number of host-speed samples taken before each
// round and after the last.
const serveProbes = 8

// runServe runs the serve workload: one in-process server.New(2) on a
// loopback listener, driven by one client over at most two connections
// (a snapshot stream and a control connection). Each round hosts a
// densecity run and a tiledcity run at once; the city run is paused
// near a fixed instant, checkpointed, forked with an add-aps edit and
// resumed. After both runs and the fork finish, the city run's
// checkpoint at that instant is restored alone. The server lives for
// every round, so whatever it keeps of finished runs accumulates.
func runServe(b *bench, specs []json.RawMessage, traced bool) *outcome {
	out := newOutcome()
	out.eventsPartial = true // the tiled runs export no dispatch counter
	rounds := make([]serveRound, len(specs))
	var jobs []job
	for i, s := range specs {
		if err := json.Unmarshal(s, &rounds[i]); err != nil {
			panic(err)
		}
		jobs = append(jobs, job{"densecity", mustJSON(rounds[i].City)}, job{"tiledcity", mustJSON(rounds[i].Tiled)})
	}
	out.setupS = measureSetup(b, jobs)

	srv := server.New(2)
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: 2}
	c := &client{base: ts.URL, hc: &http.Client{Transport: tr}, b: b, out: out, traced: traced}

	h0 := sampleHost()
	var timed time.Duration
	for j, r := range rounds {
		// The server's runs cannot be probed between their steps, so
		// the host is sampled between rounds instead.
		for i := 0; i < serveProbes; i++ {
			b.speed.sample()
		}
		runtime.GC() // as before each panel entry in runPanel
		timed += c.round(j, r)
	}
	for i := 0; i < serveProbes; i++ {
		b.speed.sample()
	}
	out.host = h0.to(sampleHost())
	out.cpuS = timed.Seconds()
	if traced && len(rounds) > 0 {
		// The server's run loop is not instrumented, so the per-slice
		// cost is read by driving the first round's city spec through
		// the same 250 ms slices directly.
		s, err := checkpoint.Build("densecity", mustJSON(rounds[0].City), checkpoint.Options{})
		if b.ops.check(err == nil, "serve slice probe: build: %v", err) {
			driveSlices(s, out, b.speed, -1, nil)
		}
	}

	out.goroutinesEnd = runtime.NumGoroutine()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	out.liveMiBEnd = float64(mem.HeapAlloc) / (1 << 20)
	tr.CloseIdleConnections()
	ts.Close()
	return out
}

// client is the serve workload's HTTP client. Its methods may be
// called from the stream reader and the control goroutine at once.
type client struct {
	base   string
	hc     *http.Client
	b      *bench
	traced bool

	mu  sync.Mutex // guards out's server fields and b.ops
	out *outcome
}

// runStatus is the subset of the server's run status the client reads.
type runStatus struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	AtNS   int64           `json:"at_ns"`
	EndNS  int64           `json:"end_ns"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func (c *client) check(ok bool, format string, args ...interface{}) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.b.ops.check(ok, format, args...)
}

// call sends one control request, records its wall latency, and
// decodes a 2xx JSON response into v when v is non-nil.
func (c *client) call(method, path string, body []byte, v interface{}) ([]byte, bool) {
	t0 := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, c.check(false, "%s %s: %v", method, path, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, c.check(false, "%s %s: %v", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.mu.Lock()
	c.out.controlMS = append(c.out.controlMS, ms(time.Since(t0)))
	c.mu.Unlock()
	if !c.check(err == nil && resp.StatusCode/100 == 2, "%s %s: status %d: %s", method, path, resp.StatusCode, data) {
		return nil, false
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			return nil, c.check(false, "%s %s: response: %v", method, path, err)
		}
	}
	return data, true
}

func (c *client) submit(kind string, spec interface{}) string {
	var r struct {
		ID string `json:"id"`
	}
	c.call("POST", "/api/runs", mustJSON(map[string]interface{}{"kind": kind, "spec": spec}), &r)
	return r.ID
}

func (c *client) status(id string) runStatus {
	var st runStatus
	c.call("GET", "/api/runs/"+id, nil, &st)
	return st
}

// waitReady polls a run until its session exists (build or restore
// finished) or it failed.
func (c *client) waitReady(id string) runStatus {
	for {
		st := c.status(id)
		if st.EndNS > 0 || st.State == "failed" || st.State == "" {
			return st
		}
		time.Sleep(pollEvery)
	}
}

// stream reads a run's snapshot stream from offset 0 to its end into
// sink, calling onSnap with each snapshot's virtual time.
func (c *client) stream(id string, sink *snapshotSink, onSnap func(tMS float64)) {
	resp, err := c.hc.Get(c.base + "/api/runs/" + id + "/stream")
	if !c.check(err == nil, "stream %s: %v", id, err) {
		return
	}
	defer resp.Body.Close()
	if !c.check(resp.StatusCode == http.StatusOK, "stream %s: status %d", id, resp.StatusCode) {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		_, _ = sink.Write(line)
		c.mu.Lock()
		c.out.streamBytes += int64(len(line)) + 1
		c.mu.Unlock()
		if onSnap != nil {
			if t, ok := snapshotTime(line); ok {
				onSnap(t)
			}
		}
	}
	c.check(sc.Err() == nil, "stream %s: %v", id, sc.Err())
}

// snapshotTime extracts t_ms from a snapshot line.
func snapshotTime(line []byte) (float64, bool) {
	const prefix = `{"event":"snapshot","t_ms":`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return 0, false
	}
	rest := line[len(prefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	t, err := strconv.ParseFloat(string(rest[:end]), 64)
	return t, err == nil
}

// round runs one serve round and returns the CPU time of its timed
// part (everything before the standalone restore).
func (c *client) round(j int, r serveRound) time.Duration {
	b, out := c.b, c.out
	c0 := cpuNow()
	idA := c.submit("densecity", r.City)
	idB := c.submit("tiledcity", r.Tiled)

	// The stream reader follows the city run from offset 0 while it is
	// written, and the snapshot one slice before the pause instant
	// triggers the pause. The server has no pause-at: the pause lands
	// on whichever slice boundary follows the request, usually the
	// pause instant, and nothing measured depends on which.
	pausedAt := make(chan int64, 1)
	forkID := make(chan string, 1)
	streamsDone := make(chan struct{})
	trigger := float64(r.PauseMS) - float64(server.Slice.Milliseconds())
	go func() {
		defer close(streamsDone)
		var sinks [3]snapshotSink
		sent := false
		c.stream(idA, &sinks[0], func(t float64) {
			if !sent && t >= trigger {
				sent = true
				var st runStatus
				c.call("POST", "/api/runs/"+idA+"/pause", nil, &st)
				pausedAt <- st.AtNS
			}
		})
		if !sent {
			pausedAt <- -1
		}
		if id := <-forkID; id != "" {
			c.stream(id, &sinks[1], nil)
		}
		c.stream(idB, &sinks[2], nil)
		if c.traced {
			c.mu.Lock()
			for i := range sinks {
				b.ops.check(sinks[i].harvest(out), "serve round %d: stream %d held no snapshot", j, i)
			}
			c.mu.Unlock()
		}
	}()

	at := <-pausedAt
	c.check(at >= 0, "serve round %d: city run ended before its pause instant", j)
	served, _ := c.call("POST", "/api/runs/"+idA+"/checkpoint", nil, nil)
	t0 := time.Now()
	edit := checkpoint.Edit{Op: "add-aps", N: r.AddAPs, Seed: r.City.Seed}
	var fk struct {
		ID string `json:"id"`
	}
	c.call("POST", "/api/runs/"+idA+"/fork", mustJSON(map[string]interface{}{"edits": []checkpoint.Edit{edit}}), &fk)
	// The city run stays paused until the fork is ready, so a paused
	// run that keeps its worker slot shows here as the fork waiting for
	// the tiled run to finish.
	if fk.ID != "" {
		st := c.waitReady(fk.ID)
		c.check(st.State != "failed", "serve round %d: fork failed: %s", j, st.Error)
		c.mu.Lock()
		out.forkReadyMS = append(out.forkReadyMS, ms(time.Since(t0)))
		c.mu.Unlock()
	}
	forkID <- fk.ID
	c.call("POST", "/api/runs/"+idA+"/resume", nil, nil)
	<-streamsDone

	stA, stB := c.status(idA), c.status(idB)
	var stF runStatus
	if fk.ID != "" {
		stF = c.status(fk.ID)
	}
	timed := cpuNow() - c0
	c.mu.Lock()
	for _, st := range []runStatus{stA, stB, stF} {
		out.simS += float64(st.EndNS) / 1e9
		b.ops.check(st.State == "done", "serve round %d: run %s ended %q: %s", j, st.ID, st.State, st.Error)
	}
	c.mu.Unlock()
	c.checkDone(j, "city", stA.Result)
	c.checkDone(j, "tiled", stB.Result)
	c.checkDone(j, "fork", stF.Result)
	c.pin(fmt.Sprintf("serve/city/%d", j), stA.Result)
	c.pin(fmt.Sprintf("serve/tiled/%d", j), stB.Result)
	c.check(!bytes.Equal(stF.Result, stA.Result), "serve round %d: fork result equals the unedited run's", j)

	// The standalone restore, paused as soon as it is submitted, so the
	// measured CPU is decode, rebuild, replay and verify with nothing
	// else advancing; with the local capture and encode before it, it
	// is Restore(Decode(Encode(Capture))) as on city and storm. It
	// restores the city run's checkpoint at exactly the pause instant,
	// captured locally, so that its cost does not depend on where the
	// server's pause landed; where it landed on the pause instant, the
	// server's checkpoint must be the same bytes.
	pauseNS := int64(r.PauseMS) * int64(time.Millisecond)
	cpBody, cpCost, err := fixedCheckpoint(out, r.City, time.Duration(pauseNS))
	if !c.check(err == nil, "serve round %d: local checkpoint: %v", j, err) {
		return timed
	}
	if at == pauseNS {
		c.check(bytes.Equal(cpBody, served), "serve round %d: served checkpoint differs from a local capture at the same instant", j)
	} else {
		fmt.Fprintf(os.Stderr, "note: serve round %d paused at %d ms, aimed at %d ms\n", j, at/1e6, r.PauseMS)
	}
	b.speed.sample()
	runtime.GC() // as before each restore in runPanel
	c1 := cpuNow()
	var rs struct {
		ID string `json:"id"`
	}
	c.call("POST", "/api/restore", cpBody, &rs)
	if rs.ID == "" {
		return timed
	}
	c.call("POST", "/api/runs/"+rs.ID+"/pause", nil, nil)
	st := c.waitReady(rs.ID)
	d := cpCost + cpuNow() - c1
	if c.check(st.State != "failed" && st.AtNS == pauseNS, "serve round %d: restore: state %q at %d ns: %s", j, st.State, st.AtNS, st.Error) {
		c.mu.Lock()
		out.restoreS = append(out.restoreS, d.Seconds())
		out.cpBytes += int64(len(cpBody))
		c.mu.Unlock()
	}
	c.call("POST", "/api/runs/"+rs.ID+"/resume", nil, nil)
	c.stream(rs.ID, &snapshotSink{}, nil)
	stR := c.status(rs.ID)
	c.check(stR.State == "done" && bytes.Equal(stR.Result, stA.Result),
		"serve round %d: restored run's result differs from the resumed run's:\n%s\n%s", j, stR.Result, stA.Result)
	c.check(!bytes.Equal(stF.Result, stR.Result), "serve round %d: fork result equals the restored run's", j)
	return timed
}

func (c *client) checkDone(j int, what string, res json.RawMessage) {
	var r struct {
		Done bool `json:"done"`
	}
	err := json.Unmarshal(res, &r)
	c.check(err == nil && r.Done, "serve round %d: %s result not done: %s", j, what, res)
}

func (c *client) pin(key string, res []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.b.pin(key, res)
}

// fixedCheckpoint builds a densecity session, advances it to at and
// returns its encoded checkpoint with the CPU time of capture and
// encode, recording each of the two in out.
func fixedCheckpoint(out *outcome, spec interface{}, at time.Duration) ([]byte, time.Duration, error) {
	s, err := checkpoint.Build("densecity", mustJSON(spec), checkpoint.Options{})
	if err != nil {
		return nil, 0, err
	}
	s.AdvanceTo(at)
	c0 := cpuNow()
	cp, err := checkpoint.Capture(s)
	if err != nil {
		return nil, 0, err
	}
	c1 := cpuNow()
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		return nil, 0, err
	}
	c2 := cpuNow()
	out.captureS = append(out.captureS, (c1 - c0).Seconds())
	out.encodeS = append(out.encodeS, (c2 - c1).Seconds())
	return buf.Bytes(), c2 - c0, nil
}
