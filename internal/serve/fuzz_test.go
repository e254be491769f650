package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"waggle/internal/obs"
)

// FuzzCreate posts arbitrary bodies to the create endpoint of an
// in-process server. The contract under attack: a create body is either
// a session (201) or the client's mistake (400) — never a 500 or a
// panic — and every session it creates deletes cleanly (204), leaving
// no checkpoint or stream file behind.
func FuzzCreate(f *testing.F) {
	for _, body := range []string{
		`{"positions":[[0,0],[10,0]],"synchronous":true,"seed":7,"trace":true}`,
		`{"positions":[[0,0],[3,4],[9,1]],"protocol":"asyncn","scheduler":"roundrobin"}`,
		`{"positions":[[0,0],[5,1],[2,7],[9,3]],"synchronous":true,"sense_of_direction":true,"levels":3}`,
		`{"positions":[[0,0],[5,1],[2,7],[9,3]],"protocol":"asyncbounded","bounded_slices":2,"activation_prob":0.25}`,
		`{"positions":[[0,0],[5,1],[2,7]],"identified":true,"sigma":0.5,"engine":"parallel"}`,
		`{"positions":[[0,0],[0,0]]}`,
		`{"positions":[[0,0]]}`,
		`{"positions":[[0,0],[1,0],[2,0]],"bounded_slices":9}`,
		`{"positions":[[0,0],[1,1]],"activation_prob":2}`,
		`{"positions":[[0,0],[1,1]],"protocol":"nosuch"}`,
		`{"positions":[[1e308,0],[-1e308,0]]}`,
		`{"positions":[[0,0],[1,1]],"sigma":-1}`,
		`{"positions":"no"}`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	dir := f.TempDir()
	s, err := New(Options{Dir: dir, IdleAfter: time.Hour, Stream: true}, obs.New(256))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("create %q: status %d: %s", body, rec.Code, rec.Body)
		}
		var created CreateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || !validSessionID(created.ID) {
			t.Fatalf("create %q: reply %s (%v)", body, rec.Body, err)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/sessions/"+created.ID, nil))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("delete after create %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
			t.Fatalf("delete after create %q left %v (%v)", body, left, err)
		}
	})
}

// FuzzSpectate sends arbitrary query strings and Last-Event-ID headers
// to the spectate endpoint of a streaming session in an in-process
// server. The contract under attack: every request is served (200, a
// batch or an event stream) or refused as the client's mistake (400) —
// never a 500 or a panic. MaxObserveWait is short, so a long-poll past
// the end of the stream returns within it.
func FuzzSpectate(f *testing.F) {
	for _, seed := range []struct{ query, lastEventID string }{
		{"", ""},
		{"offset=0", ""},
		{"offset=-1&max=1", ""},
		{"offset=7", ""},
		{"offset=-5", ""},
		{"offset=9223372036854775807&wait=1h", ""},
		{"offset=%zz;max=2", ""},
		{"max=0", ""},
		{"max=99999999", ""},
		{"wait=-1s", ""},
		{"wait=soon", ""},
		{"sse=1&wait=0s", "0"},
		{"sse=1", "12"},
		{"sse=1&offset=3", "x"},
		{"", "-3"},
	} {
		f.Add(seed.query, seed.lastEventID)
	}
	s, err := New(Options{Dir: f.TempDir(), IdleAfter: time.Hour, Stream: true, MaxObserveWait: 10 * time.Millisecond}, obs.New(256))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(`{"positions":[[0,0],[10,0],[3,7]],"synchronous":true,"seed":7}`)))
	var created CreateResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
		f.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	sessPath := "/v1/sessions/" + created.ID
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", sessPath+"/step", strings.NewReader(`{"steps":5}`)))
	if rec.Code != http.StatusOK {
		f.Fatalf("step: status %d: %s", rec.Code, rec.Body)
	}

	f.Fuzz(func(t *testing.T, query, lastEventID string) {
		req := httptest.NewRequest("GET", sessPath+"/spectate", nil)
		req.URL.RawQuery = query
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("spectate ?%s (Last-Event-ID %q): status %d: %s", query, lastEventID, rec.Code, rec.Body)
		}
	})
}
