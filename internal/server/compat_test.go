package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rfidraw/internal/realtime"
)

// This file is the wire-compatibility gate for the SessionSpec API
// consolidation: pre-spec HTTP bodies, the NDJSON stream field names and
// the deprecated constructor wrappers must keep working verbatim, and
// the new error envelope must be the one shape every handler speaks.

func compatServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := New(Config{
		HTTPAddr:   "127.0.0.1:0",
		IngestAddr: "127.0.0.1:0",
		Registry: RegistryConfig{
			NewEngine: testFactory(t),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, &Client{BaseURL: "http://" + srv.HTTPAddr()}
}

// TestCreateSessionLegacyBody: a pre-spec create body — exactly the
// fields the old CreateSession/CreateSessionGeometry client methods
// sent — still opens a session.
func TestCreateSessionLegacyBody(t *testing.T) {
	srv, _ := compatServer(t)
	base := "http://" + srv.HTTPAddr()
	for _, body := range []string{
		`{"id": "legacy-plain", "sweep_ms": 25}`,
		`{"id": "legacy-geom", "sweep_ms": 25, "geometry": "default"}`,
		``, // empty body: daemon assigns everything
	} {
		resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, status := readBody(t, resp), resp.StatusCode
		if status != http.StatusCreated {
			t.Fatalf("body %q: status %d (%s)", body, status, raw)
		}
		var created struct {
			ID     string `json:"id"`
			Ingest string `json:"ingest"`
			Stream string `json:"stream"`
		}
		if err := json.Unmarshal([]byte(raw), &created); err != nil {
			t.Fatalf("body %q: bad response %q: %v", body, raw, err)
		}
		if created.ID == "" || created.Ingest == "" || !strings.HasPrefix(created.Stream, "/v1/sessions/") {
			t.Fatalf("body %q: response missing fields: %q", body, raw)
		}
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestErrorEnvelope: every /v1 failure answers the one
// {"error":{"code","message"}} envelope, and Client surfaces it as a
// typed APIError whose Is() maps codes back onto the error sentinels.
func TestErrorEnvelope(t *testing.T) {
	srv, cl := compatServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	base := "http://" + srv.HTTPAddr()

	// Raw envelope shape on a 404.
	resp, err := http.Get(base + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(raw), &env); err != nil {
		t.Fatalf("bad envelope %q: %v", raw, err)
	}
	if env.Error.Code != "not_found" || env.Error.Message == "" {
		t.Fatalf("envelope = %q", raw)
	}

	// Typed decode + sentinel mapping across representative failures.
	if _, err := cl.CreateSession(ctx, SessionSpec{ID: "dup", Sweep: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		do       func() error
		code     string
		status   int
		sentinel error
	}{
		{"conflict", func() error {
			_, err := cl.CreateSession(ctx, SessionSpec{ID: "dup"})
			return err
		}, "conflict", http.StatusConflict, ErrSessionExists},
		{"bad id", func() error {
			_, err := cl.CreateSession(ctx, SessionSpec{ID: "bad/id"})
			return err
		}, "bad_session_id", http.StatusBadRequest, ErrBadSessionID},
		{"unknown delete", func() error {
			return cl.DeleteSession(ctx, "nope")
		}, "not_found", http.StatusNotFound, ErrUnknownSession},
		{"not parked", func() error {
			return cl.ResumeSession(ctx, "dup")
		}, "not_parked", http.StatusConflict, ErrNotParked},
		{"no wal retrace", func() error {
			_, _, err := cl.Retrace(ctx, "dup", "")
			return err
		}, "no_wal", http.StatusBadRequest, ErrNoWAL},
	}
	for _, tc := range cases {
		err := tc.do()
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: error %v (%T) is not an *APIError", tc.name, err, err)
		}
		if apiErr.Code != tc.code || apiErr.StatusCode != tc.status {
			t.Errorf("%s: code=%q status=%d, want %q/%d", tc.name, apiErr.Code, apiErr.StatusCode, tc.code, tc.status)
		}
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: %v does not map to sentinel %v", tc.name, err, tc.sentinel)
		}
	}
}

// TestAPIErrorLegacyFlat: Client still decodes the pre-envelope flat
// {"error":"message"} body an older daemon answers with.
func TestAPIErrorLegacyFlat(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error": "boom from an old daemon"}`))
	}))
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}
	err := cl.DeleteSession(context.Background(), "x")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v (%T) is not an *APIError", err, err)
	}
	if apiErr.StatusCode != http.StatusInternalServerError || apiErr.Message != "boom from an old daemon" {
		t.Fatalf("APIError = %+v", apiErr)
	}
}

// TestNDJSONWireFields: the stream's NDJSON field names are the frozen
// wire contract; the spec consolidation must not have renamed any.
func TestNDJSONWireFields(t *testing.T) {
	run, _ := scenario(t)
	srv, cl := compatServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id, err := cl.CreateSession(ctx, SessionSpec{ID: "wire", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	sess, ok := srv.reg.Get(id)
	if !ok {
		t.Fatal("session not registered")
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+srv.HTTPAddr()+"/v1/sessions/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	for _, rep := range realtime.MergeStreams(run.ReportsRF...) {
		if err := sess.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pointKeys := map[string]bool{}
	for sc.Scan() {
		var fields map[string]any
		if err := json.Unmarshal(sc.Bytes(), &fields); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		typ, _ := fields["type"].(string)
		if typ == "" {
			t.Fatalf("line %q has no type", sc.Text())
		}
		if typ == "point" {
			for k := range fields {
				pointKeys[k] = true
			}
			// Every field is omitempty except x/z, so accumulate until a
			// non-zero-time point has shown the full shape.
			if pointKeys["t_ns"] {
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"type", "tag", "t_ns", "x", "z"} {
		if !pointKeys[want] {
			t.Errorf("point event lost wire field %q (got %v)", want, pointKeys)
		}
	}
	for k := range pointKeys {
		switch k {
		case "type", "tag", "t_ns", "x", "z", "confidence", "hypotheses", "switched", "seq":
		default:
			t.Errorf("point event grew unexpected wire field %q", k)
		}
	}
}
