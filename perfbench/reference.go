package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
)

// reference is an in-process single serve.Server fed the identical ingest
// stream the system under test received: the correctness oracle. A fleet's
// answers must equal it byte for byte modulo the version field (a fleet's
// version is the sum of its shards' ingest clocks), the fleet-smoke
// contract.
type reference struct {
	srv *serve.Server
}

func newReference(mp modelPaths) (*reference, error) {
	pred, err := core.LoadPredictor(mp.pred)
	if err != nil {
		return nil, err
	}
	loc, err := core.LoadLocator(mp.loc)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Predictor: pred, Locator: loc})
	if err != nil {
		return nil, err
	}
	return &reference{srv: srv}, nil
}

// serve answers one request in process.
func (ref *reference) serve(r *request) (int, []byte) {
	var req *http.Request
	if r.body != nil {
		req = httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(http.MethodGet, r.path, nil)
	}
	rec := httptest.NewRecorder()
	ref.srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// feed ingests weeks lo..hi of ds, the records the ingest bodies encode,
// straight into the reference's store, calling after (when set) once each
// week is in. Skipping the JSON round trip keeps the oracle cheap, and makes
// the gate check the benchmark's body encoding too.
func (ref *reference) feed(ds *data.Dataset, lo, hi int, after func(week int) error) error {
	src, err := sim.NewSource(ds, lo, hi)
	if err != nil {
		return err
	}
	st := ref.srv.Store()
	for {
		b, ok := src.Next()
		if !ok {
			return nil
		}
		tests := make([]serve.TestRecord, len(b.Tests))
		for i, t := range b.Tests {
			tests[i] = serve.TestRecord{Line: t.M.Line, Week: t.M.Week, Missing: t.M.Missing,
				F: append([]float32(nil), t.M.F[:]...), Profile: t.Profile, DSLAM: t.DSLAM, Usage: t.Usage}
		}
		tickets := make([]serve.TicketRecord, len(b.Tickets))
		for i, t := range b.Tickets {
			tickets[i] = serve.TicketRecord{ID: t.ID, Line: t.Line, Day: t.Day, Category: uint8(t.Category)}
		}
		if _, err := st.IngestTests(tests); err != nil {
			return fmt.Errorf("reference ingest week %d: %w", b.Week, err)
		}
		if _, err := st.IngestTickets(tickets); err != nil {
			return fmt.Errorf("reference ingest week %d: %w", b.Week, err)
		}
		if after != nil {
			if err := after(b.Week); err != nil {
				return err
			}
		}
	}
}

// answer is the reference's response to one probe.
type answer struct {
	status int
	body   []byte
}

// answers serves every probe. Computing them before anything is timed lets
// the reference's memory go before the measured window.
func (ref *reference) answers(probes []request) []answer {
	out := make([]answer, len(probes))
	for i := range probes {
		out[i].status, out[i].body = ref.serve(&probes[i])
	}
	return out
}

var versionField = regexp.MustCompile(`"version":[0-9]+`)

// sameAnswer compares two response bodies ignoring the version field.
func sameAnswer(a, b []byte) bool {
	return bytes.Equal(versionField.ReplaceAll(a, []byte(`"version":0`)),
		versionField.ReplaceAll(b, []byte(`"version":0`)))
}

// mismatch describes a failed comparison for the run log.
func mismatch(r *request, status int, got []byte, refStatus int, want []byte) error {
	return fmt.Errorf("%s %s: system answered %d %.300s; reference %d %.300s",
		r.method(), r.path, status, got, refStatus, want)
}
