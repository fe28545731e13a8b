package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/wal"
)

// walServer starts a server backed by a WAL data dir and returns the
// pieces a durability test needs.
func walServer(t *testing.T) (*httptest.Server, *Server, *store.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	h := NewServer(st)
	h.AttachWAL(l)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, h, st, dir
}

func postUpdate(t *testing.T, srv *httptest.Server, model, update string) {
	t.Helper()
	form := url.Values{"update": {update}}
	if model != "" {
		form.Set("model", model)
	}
	resp, err := http.PostForm(srv.URL+"/update", form)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %s", resp.StatusCode, body)
	}
}

// TestUpdateJournalsAndRecovers drives a mutation through the HTTP
// layer and reopens the data dir: the recovered store must match.
func TestUpdateJournalsAndRecovers(t *testing.T) {
	srv, h, st, dir := walServer(t)
	postUpdate(t, srv, "m", `INSERT DATA { <http://pg/v1> <http://pg/k/name> "Amy" }`)
	if h.wal.Stats().WalRecords != 1 {
		t.Fatalf("wal stats after update: %+v", h.wal.Stats())
	}
	want := storetest.Fingerprint(st.View())
	srv.Close()
	if err := h.wal.Close(); err != nil {
		t.Fatal(err)
	}

	st2, l2, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if storetest.Fingerprint(st2.View()) != want {
		t.Fatal("recovered store diverges from the served one")
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	srv, h, _, _ := walServer(t)
	postUpdate(t, srv, "m", `INSERT DATA { <http://pg/v1> <http://pg/k/name> "Amy" }`)

	// GET is rejected.
	resp, err := http.Get(srv.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /checkpoint status %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /checkpoint status %d", resp.StatusCode)
	}
	var out struct {
		CheckpointBytes int64   `json:"checkpointBytes"`
		DurationSeconds float64 `json:"durationSeconds"`
		WalBytes        int64   `json:"walBytes"`
		WalRecords      int64   `json:"walRecords"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.CheckpointBytes == 0 || out.WalBytes != 0 || out.WalRecords != 0 {
		t.Fatalf("checkpoint response: %+v", out)
	}
	if ws := h.wal.Stats(); ws.Checkpoints != 1 {
		t.Fatalf("wal stats after checkpoint: %+v", ws)
	}
}

// TestCheckpointIncrementalEndpoint drives ?mode=incremental: after a
// full binary checkpoint, an incremental request folds the log into a
// delta file instead of rewriting the snapshot.
func TestCheckpointIncrementalEndpoint(t *testing.T) {
	srv, h, _, _ := walServer(t)
	postUpdate(t, srv, "m", `INSERT DATA { <http://pg/v1> <http://pg/k/name> "Amy" }`)

	resp, err := http.Post(srv.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full checkpoint status %d", resp.StatusCode)
	}

	postUpdate(t, srv, "m", `INSERT DATA { <http://pg/v2> <http://pg/k/name> "Bob" }`)
	resp, err = http.Post(srv.URL+"/checkpoint?mode=incremental", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("incremental checkpoint status %d", resp.StatusCode)
	}
	var out struct {
		WalRecords             int64 `json:"walRecords"`
		FullCheckpoints        int64 `json:"fullCheckpoints"`
		IncrementalCheckpoints int64 `json:"incrementalCheckpoints"`
		DeltaChainLen          int64 `json:"deltaChainLen"`
		DeltaChainBytes        int64 `json:"deltaChainBytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.WalRecords != 0 ||
		out.FullCheckpoints != 1 || out.IncrementalCheckpoints != 1 ||
		out.DeltaChainLen != 1 || out.DeltaChainBytes == 0 {
		t.Fatalf("incremental checkpoint response: %+v", out)
	}
	if ws := h.wal.Stats(); ws.Checkpoints != 2 || ws.IncrementalCheckpoints != 1 {
		t.Fatalf("wal stats after incremental checkpoint: %+v", ws)
	}

	// An unknown mode is a 400, not a checkpoint.
	resp, err = http.Post(srv.URL+"/checkpoint?mode=sideways", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "bad-mode") {
		t.Fatalf("mode=sideways status %d: %s", resp.StatusCode, body)
	}
}

func TestCheckpointWithoutWALIs409(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "no-wal") {
		t.Fatalf("body lacks the no-wal error code: %s", body)
	}
}

// TestExportSnapshotRoundTrips streams /export?format=snapshot into
// store.RestoreBinary and compares the result with the served store.
func TestExportSnapshotRoundTrips(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/export?format=snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	r, err := store.RestoreBinary(body)
	if err != nil {
		t.Fatalf("restore of exported snapshot: %v", err)
	}
	if r.Len() != 4 || r.View().LookupModel("social") == store.NoID {
		t.Fatalf("restored %d quads, models %v", r.Len(), r.View().Models())
	}
}

func TestExportUnknownFormatIs400(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/export?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestStatsAndMetricsExposeWAL checks the observability surface: /stats
// JSON fields and /metrics exposition lines appear exactly when a WAL
// is attached.
func TestStatsAndMetricsExposeWAL(t *testing.T) {
	srv, _, _, _ := walServer(t)
	postUpdate(t, srv, "m", `INSERT DATA { <http://pg/v1> <http://pg/k/name> "Amy" }`)

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"walBytes", "walRecords", "walSeq", "checkpoints", "replayedRecords", "tornBytesDropped",
		"fullCheckpoints", "incrementalCheckpoints", "deltaChainLen", "deltaChainBytes"} {
		if _, ok := stats[k]; !ok {
			t.Errorf("/stats lacks %q: %v", k, stats)
		}
	}
	if stats["walRecords"].(float64) != 1 {
		t.Errorf("walRecords = %v, want 1", stats["walRecords"])
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pgrdf_wal_bytes ", "pgrdf_wal_records 1", "pgrdf_checkpoint_total 0",
		"pgrdf_checkpoint_full_total 0", "pgrdf_checkpoint_incremental_total 0",
		"pgrdf_checkpoint_errors_total 0", "pgrdf_checkpoint_last_bytes 0",
		"pgrdf_checkpoint_delta_chain_len 0", "pgrdf_checkpoint_delta_chain_bytes 0",
		"pgrdf_checkpoint_last_duration_seconds 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// Without a WAL the families are absent entirely.
	plain := testServer(t)
	resp, err = http.Get(plain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "pgrdf_wal_") {
		t.Error("/metrics exposes WAL families without a WAL attached")
	}
	resp, err = http.Get(plain.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var plainStats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&plainStats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plainStats["walBytes"]; ok {
		t.Error("/stats exposes walBytes without a WAL attached")
	}
}
