package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"whitefi/internal/checkpoint"
	"whitefi/internal/exp"
	"whitefi/internal/server"
)

// postJSON posts body and decodes the JSON response into out.
func postJSON(t *testing.T, url string, body string, out interface{}) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches url and decodes the JSON response into out.
func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

// status mirrors the server's run status JSON.
type status struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	State  string          `json:"state"`
	AtNS   int64           `json:"at_ns"`
	EndNS  int64           `json:"end_ns"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// waitState polls a run until pred accepts its status.
func waitState(t *testing.T, base, id string, pred func(status) bool) status {
	t.Helper()
	deadline := time.Now().Add(180 * time.Second)
	for {
		var st status
		getJSON(t, base+"/api/runs/"+id, &st)
		if pred(st) {
			return st
		}
		if st.State == "failed" {
			t.Fatalf("run %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in state %s at %d", id, st.State, st.AtNS)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readStream fetches a run's snapshot stream to EOF.
func readStream(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/api/runs/" + id + "/stream")
	if err != nil {
		t.Fatalf("stream %s: %v", id, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream %s read: %v", id, err)
	}
	return b
}

// localReference runs the spec's session uninterrupted in-process and
// returns its snapshot stream and result JSON — what every server-side
// path (plain run, restored run, resumed run) must reproduce exactly.
func localReference(t *testing.T, kind, spec string) ([]byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	s, err := checkpoint.Build(kind, json.RawMessage(spec), checkpoint.Options{SnapshotOut: &buf})
	if err != nil {
		t.Fatalf("local build: %v", err)
	}
	s.AdvanceTo(s.End())
	res, err := json.Marshal(s.Result())
	if err != nil {
		t.Fatalf("local result: %v", err)
	}
	return buf.Bytes(), res
}

// TestServerEndToEnd drives the full serving surface: submit, stream,
// pause, checkpoint, restore, fork, resume — and pins every result
// and snapshot stream against an uninterrupted in-process run.
func TestServerEndToEnd(t *testing.T) {
	exp.RegisterSessions()
	ts := httptest.NewServer(server.New(3).Handler())
	defer ts.Close()

	const kind = "densecity"
	const specA = `{"aps":4,"seed":7,"measure_ms":6000,"telemetry_ms":500}`
	refStreamA, refResultA := localReference(t, kind, specA)

	// Submit and stream a plain run.
	var sub struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/api/runs", fmt.Sprintf(`{"kind":%q,"spec":%s}`, kind, specA), &sub); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	streamA := readStream(t, ts.URL, sub.ID)
	stA := waitState(t, ts.URL, sub.ID, func(st status) bool { return st.State == "done" })
	if !bytes.Equal(streamA, refStreamA) {
		t.Fatalf("served stream diverged from local run (%d vs %d bytes)", len(streamA), len(refStreamA))
	}
	if string(stA.Result) != string(refResultA) {
		t.Fatalf("served result diverged:\n%s\nvs\n%s", stA.Result, refResultA)
	}

	// A longer run to pause mid-flight.
	const specB = `{"aps":6,"seed":11,"measure_ms":20000,"telemetry_ms":1000}`
	refStreamB, refResultB := localReference(t, kind, specB)
	if code := postJSON(t, ts.URL+"/api/runs", fmt.Sprintf(`{"kind":%q,"spec":%s}`, kind, specB), &sub); code != http.StatusAccepted {
		t.Fatalf("submit B: status %d", code)
	}
	runB := sub.ID
	waitState(t, ts.URL, runB, func(st status) bool { return st.AtNS > 0 })
	postJSON(t, ts.URL+"/api/runs/"+runB+"/pause", "", nil)
	stB := waitState(t, ts.URL, runB, func(st status) bool { return st.State == "paused" || st.State == "done" })
	if stB.State != "paused" {
		t.Fatalf("run finished before the pause landed — grow spec B (at %d of %d ns)", stB.AtNS, stB.EndNS)
	}

	// Checkpoint the paused run and restore it as a new run; the
	// restored run must replay run B's history and finish exactly like
	// the uninterrupted reference.
	cpResp, err := http.Post(ts.URL+"/api/runs/"+runB+"/checkpoint", "application/jsonl", nil)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	cpBytes, _ := io.ReadAll(cpResp.Body)
	cpResp.Body.Close()
	if cpResp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d: %s", cpResp.StatusCode, cpBytes)
	}
	if _, err := checkpoint.Decode(bytes.NewReader(cpBytes)); err != nil {
		t.Fatalf("served checkpoint does not decode: %v", err)
	}
	resp, err := http.Post(ts.URL+"/api/restore", "application/jsonl", bytes.NewReader(cpBytes))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("restore decode: %v", err)
	}
	resp.Body.Close()
	restored := sub.ID
	streamC := readStream(t, ts.URL, restored)
	stC := waitState(t, ts.URL, restored, func(st status) bool { return st.State == "done" })
	if !bytes.Equal(streamC, refStreamB) {
		t.Fatalf("restored run's stream diverged from uninterrupted reference (%d vs %d bytes)", len(streamC), len(refStreamB))
	}
	if string(stC.Result) != string(refResultB) {
		t.Fatalf("restored run's result diverged:\n%s\nvs\n%s", stC.Result, refResultB)
	}

	// Fork the paused run with a what-if edit: it must complete and
	// diverge from the reference.
	if code := postJSON(t, ts.URL+"/api/runs/"+runB+"/fork", `{"edits":[{"op":"add-aps","n":1,"seed":3}]}`, &sub); code != http.StatusAccepted {
		t.Fatalf("fork: status %d", code)
	}
	stF := waitState(t, ts.URL, sub.ID, func(st status) bool { return st.State == "done" })
	if string(stF.Result) == string(refResultB) {
		t.Fatal("forked run's result identical to the unedited reference — the edit changed nothing")
	}

	// Resume run B; it must still finish byte-identical to the
	// uninterrupted reference (the checkpoint/fork reads perturbed
	// nothing).
	postJSON(t, ts.URL+"/api/runs/"+runB+"/resume", "", nil)
	streamB := readStream(t, ts.URL, runB)
	stB = waitState(t, ts.URL, runB, func(st status) bool { return st.State == "done" })
	if !bytes.Equal(streamB, refStreamB) {
		t.Fatalf("resumed run's stream diverged from uninterrupted reference (%d vs %d bytes)", len(streamB), len(refStreamB))
	}
	if string(stB.Result) != string(refResultB) {
		t.Fatalf("resumed run's result diverged:\n%s\nvs\n%s", stB.Result, refResultB)
	}

	// The run listing covers every run we created.
	var list struct {
		Runs []status `json:"runs"`
	}
	getJSON(t, ts.URL+"/api/runs", &list)
	if len(list.Runs) != 4 {
		t.Fatalf("listing has %d runs, want 4", len(list.Runs))
	}
}

// TestServerRejections pins the API error surface.
func TestServerRejections(t *testing.T) {
	exp.RegisterSessions()
	ts := httptest.NewServer(server.New(1).Handler())
	defer ts.Close()

	var out map[string]string
	if code := postJSON(t, ts.URL+"/api/runs", `{"kind":"no-such-kind","spec":{}}`, &out); code != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/runs", `{"kind":"densecity","spec":{"aps":-3}}`, &out); code != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d", code)
	}
	// Parameters the kind would silently ignore, and negative counts.
	for _, body := range []string{
		`{"kind":"densecity","spec":{"aps":4,"mobility":true}}`,
		`{"kind":"densecity","spec":{"aps":4,"shards":3,"workers":-2}}`,
		`{"kind":"densecity","spec":{"aps":4,"workers":2}}`,
		`{"kind":"densecity","spec":{"aps":4,"tiles":2}}`,
		`{"kind":"tiledcity","spec":{"aps":4,"tiles":2,"shards":-1}}`,
		`{"kind":"tiledcity","spec":{"aps":4,"tiles":2,"workers":-2}}`,
	} {
		if code := postJSON(t, ts.URL+"/api/runs", body, &out); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, code)
		}
	}
	if code := postJSON(t, ts.URL+"/api/runs", `not json`, &out); code != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/restore", `garbage`, &out); code != http.StatusBadRequest {
		t.Fatalf("bad checkpoint: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/api/runs/r999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing run: status %d", resp.StatusCode)
	}

	var kinds struct {
		Kinds []string `json:"kinds"`
	}
	getJSON(t, ts.URL+"/api/kinds", &kinds)
	if len(kinds.Kinds) < 4 {
		t.Fatalf("kinds listing too short: %v", kinds.Kinds)
	}
}
