package queen

import (
	"encoding/json"
	"fmt"
	"net/http"

	"waggle/internal/retry"
)

// The worker protocol, one resource: POST /queen/v1/lease to claim a
// shard, POST /queen/v1/heartbeat to keep it (optionally banking a
// migratable snapshot), POST /queen/v1/complete or /fail to finish
// it, GET /queen/v1/status to watch the campaign. An idle queen
// answers lease with 503 plus Retry-After — the same backpressure
// contract waggle-serve speaks — so workers and load balancers need
// no queen-specific waiting logic.

// LeaseRequest asks for the next runnable shard.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants a shard (or reports the campaign done). A
// non-empty Snapshot is a dead worker's banked progress: resume from
// it instead of starting cold.
type LeaseResponse struct {
	Done            bool   `json:"done,omitempty"`
	Name            string `json:"name,omitempty"`
	Token           string `json:"token,omitempty"`
	Kind            string `json:"kind,omitempty"`
	Seed            int64  `json:"seed,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	TTLMillis       int64  `json:"ttl_ms,omitempty"`
	Snapshot        []byte `json:"snapshot,omitempty"`
}

// WaitResponse is the 503 body: how long the worker should wait
// before asking again (finer-grained than the whole-second
// Retry-After).
type WaitResponse struct {
	WaitMillis int64 `json:"wait_ms"`
}

// HeartbeatRequest extends a lease; a non-empty Snapshot banks
// migratable progress as of simulated instant T.
type HeartbeatRequest struct {
	Worker   string `json:"worker"`
	Name     string `json:"name"`
	Token    string `json:"token"`
	T        int    `json:"t,omitempty"`
	Snapshot []byte `json:"snapshot,omitempty"`
}

// CompleteRequest delivers a finished shard's result: a ChaosResult
// (chaos campaigns) or a TableReport (sweep campaigns).
type CompleteRequest struct {
	Worker string          `json:"worker"`
	Name   string          `json:"name"`
	Token  string          `json:"token"`
	Result json.RawMessage `json:"result"`
}

// FailRequest reports a shard failure the worker could observe.
type FailRequest struct {
	Worker string `json:"worker"`
	Name   string `json:"name"`
	Token  string `json:"token"`
	Error  string `json:"error"`
}

// ShardStatus is one task-graph node in a status report.
type ShardStatus struct {
	Name        string `json:"name"`
	State       string `json:"state"`
	Worker      string `json:"worker,omitempty"`
	Attempts    int    `json:"attempts"`
	HasSnapshot bool   `json:"has_snapshot,omitempty"`
	SnapshotT   int    `json:"snapshot_t,omitempty"`
}

// StatusResponse is the campaign view at /queen/v1/status.
type StatusResponse struct {
	Kind      string        `json:"kind"`
	Seed      int64         `json:"seed"`
	Done      bool          `json:"done"`
	Merged    bool          `json:"merged"`
	Error     string        `json:"error,omitempty"`
	Pending   int           `json:"pending"`
	Leased    int           `json:"leased"`
	Completed int           `json:"completed"`
	Workers   []string      `json:"workers,omitempty"`
	Shards    []ShardStatus `json:"shards"`
}

// Mount registers the worker protocol on mux — typically the
// extensible obs.Mux, so the campaign API shares a listener with
// /metrics and friends.
func (q *Queen) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /queen/v1/lease", q.handleLease)
	mux.HandleFunc("POST /queen/v1/heartbeat", q.handleHeartbeat)
	mux.HandleFunc("POST /queen/v1/complete", q.handleComplete)
	mux.HandleFunc("POST /queen/v1/fail", q.handleFail)
	mux.HandleFunc("GET /queen/v1/status", q.handleStatus)
}

func (q *Queen) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "worker name required")
		return
	}
	grant, wait, err := q.lease(req.Worker)
	if err != nil {
		httpError(w, http.StatusConflict, "campaign failed: %v", err)
		return
	}
	if grant == nil {
		w.Header().Set("Retry-After", retry.CeilSeconds(wait))
		writeJSON(w, http.StatusServiceUnavailable, WaitResponse{WaitMillis: wait.Milliseconds()})
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

func (q *Queen) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	if !q.heartbeat(req.Name, req.Token, req.T, req.Snapshot) {
		// The lease moved on (expired, re-granted, or completed): the
		// worker must abandon the shard.
		httpError(w, http.StatusConflict, "lease for %q is no longer held", req.Name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (q *Queen) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Result) == 0 {
		httpError(w, http.StatusBadRequest, "result required")
		return
	}
	if err := q.complete(req.Name, req.Result); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (q *Queen) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if !decode(w, r, &req) {
		return
	}
	if err := q.fail(req.Name, req.Token, req.Error); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (q *Queen) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, q.status())
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}
