package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pinocchio/internal/probfn"
	"pinocchio/internal/store"
	"pinocchio/internal/wal"
)

// durableServer builds a served instance backed by a store in dir,
// recovering whatever state the directory already holds.
func durableServer(t *testing.T, dir string, ckptEvery int) (*Server, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Fsync: wal.PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Recover(probfn.DefaultPowerLaw(), 0.7, "test-tag")
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	srv, err := NewFromRecovery(Config{Stores: []*store.Store{st}, CheckpointEvery: ckptEvery},
		[]*store.RecoverResult{res})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return srv, st
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) map[string]any {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code >= 300 {
		t.Fatalf("%s %s: %d %s", method, path, w.Code, w.Body.String())
	}
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: decoding %q: %v", method, path, w.Body.String(), err)
	}
	return out
}

func TestDurableServerRecoversAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir, -1)

	doJSON(t, srv, "POST", "/v1/candidates", `{"x":1,"y":1}`)
	doJSON(t, srv, "POST", "/v1/candidates", `{"x":5,"y":5}`)
	doJSON(t, srv, "POST", "/v1/objects", `{"id":1,"positions":[{"x":1,"y":1}]}`)
	doJSON(t, srv, "POST", "/v1/objects", `{"id":2,"positions":[{"x":5,"y":5}]}`)
	resp := doJSON(t, srv, "POST", "/v1/objects/1/positions", `{"positions":[{"x":1.1,"y":1.1},{"x":4.9,"y":4.9}]}`)
	if seq, ok := resp["seq"].(float64); !ok || seq != 5 {
		t.Fatalf("mutation seq = %v", resp["seq"])
	}

	best1 := doJSON(t, srv, "GET", "/v1/best", "")
	status1 := doJSON(t, srv, "GET", "/v1/status", "")
	if status1["durable"] != true || status1["wal_seq"].(float64) != 5 {
		t.Fatalf("status = %v", status1)
	}
	// No checkpoint was ever taken (-1 disables); restart replays the
	// full log.
	st.Close()

	srv2, st2 := durableServer(t, dir, -1)
	defer st2.Close()
	best2 := doJSON(t, srv2, "GET", "/v1/best", "")
	if fmt.Sprint(best1["best"]) != fmt.Sprint(best2["best"]) {
		t.Fatalf("best diverged: %v vs %v", best1["best"], best2["best"])
	}
	if got, want := srv2.Epoch(), srv.Epoch(); got != want {
		t.Fatalf("epoch %d after restart, want %d", got, want)
	}
}

func TestDurableServerCheckpointNow(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir, -1)
	doJSON(t, srv, "POST", "/v1/candidates", `{"x":1,"y":1}`)
	doJSON(t, srv, "POST", "/v1/objects", `{"id":1,"positions":[{"x":1,"y":1}]}`)
	seq, err := srv.CheckpointNow()
	if err != nil || seq != 2 {
		t.Fatalf("CheckpointNow = %d, %v", seq, err)
	}
	if st.LastCheckpointSeq() != 2 {
		t.Fatalf("LastCheckpointSeq = %d", st.LastCheckpointSeq())
	}
	// More mutations after the checkpoint replay on top of it.
	doJSON(t, srv, "POST", "/v1/objects", `{"id":2,"positions":[{"x":1.2,"y":1.2}]}`)
	inf1 := doJSON(t, srv, "GET", "/v1/influence/0", "")
	st.Close()

	srv2, st2 := durableServer(t, dir, -1)
	defer st2.Close()
	inf2 := doJSON(t, srv2, "GET", "/v1/influence/0", "")
	if fmt.Sprint(inf1["candidate"]) != fmt.Sprint(inf2["candidate"]) {
		t.Fatalf("influence diverged: %v vs %v", inf1["candidate"], inf2["candidate"])
	}
	status := doJSON(t, srv2, "GET", "/v1/status", "")
	if status["last_checkpoint_seq"].(float64) != 2 {
		t.Fatalf("status checkpoint seq = %v", status["last_checkpoint_seq"])
	}
}

func TestDurableServerAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir, 3)
	defer st.Close()
	for i := 0; i < 9; i++ {
		doJSON(t, srv, "POST", "/v1/candidates", fmt.Sprintf(`{"x":%d,"y":%d}`, i, i))
	}
	// The trigger fires in a background goroutine; drain it before
	// checking its effect.
	srv.DrainCheckpoints()
	if st.LastCheckpointSeq() == 0 {
		t.Fatal("no checkpoint was written")
	}
}

func TestDurableServerRejectedMutationKeepsEpochParity(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir, -1)
	doJSON(t, srv, "POST", "/v1/objects", `{"id":1,"positions":[{"x":1,"y":1}]}`)

	// A duplicate add is rejected by the engine but still occupies a
	// WAL slot; replay must reject it the same way.
	req := httptest.NewRequest("POST", "/v1/objects", strings.NewReader(`{"id":1,"positions":[{"x":2,"y":2}]}`))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusConflict {
		t.Fatalf("duplicate add: %d %s", w.Code, w.Body.String())
	}
	doJSON(t, srv, "POST", "/v1/candidates", `{"x":1,"y":1}`)
	liveEpoch := srv.Epoch()
	st.Close()

	srv2, st2 := durableServer(t, dir, -1)
	defer st2.Close()
	if srv2.Epoch() != liveEpoch {
		t.Fatalf("epoch %d after restart, want %d", srv2.Epoch(), liveEpoch)
	}
}
