package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nevermind/internal/fleet"
	"nevermind/internal/serve"
)

// span is one timed interval of the traced run: a gateway handler call
// ("gateway /v1/score") or one of its shard legs ("leg /v1/score"). Spans of
// one client request share Req, the client's request number; a leg's Parent
// is its gateway span's ID. The gateway's background health probes carry
// Req 0 and no parent.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // legs: request plus response body bytes
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	seq   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reqHeader carries the client's request number to the traced gateway.
const reqHeader = "X-Bench-Request"

type spanKey struct{}

type spanRef struct{ req, id int64 }

// middleware times every gateway handler call and hands its span identity
// to the legs the call makes, through the request context the gateway
// passes on to its shard clients.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		ref := spanRef{req: req, id: t.seq.Add(1)}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, ref)))
		t.add(span{Name: "gateway " + r.URL.Path, ID: ref.id, Req: req,
			Start: t.since(start), End: t.since(time.Now())})
	})
}

// timingTransport times every shard leg from the request's send to the
// response body's close.
type timingTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(spanKey{}).(spanRef)
	s := span{Name: "leg " + req.URL.Path, ID: tt.t.seq.Add(1), Parent: ref.id, Req: ref.req,
		Start: tt.t.since(time.Now())}
	if req.ContentLength > 0 {
		s.Bytes = req.ContentLength
	}
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		s.End = tt.t.since(time.Now())
		tt.t.add(s)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		s.Bytes += n
		s.End = tt.t.since(time.Now())
		tt.t.add(s)
	}}
	return resp, nil
}

// countingBody counts response bytes and reports once, on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// hostedGateway is the traced run's gateway: fleet.NewGateway with
// nevermindgw's default settings, in the benchmark's own process, behind
// the timing middleware and over the timing transport.
type hostedGateway struct {
	gw  *fleet.Gateway
	srv *http.Server
	url string
	err chan error
}

func hostGateway(t *tracer, shardURLs []string) (*hostedGateway, error) {
	specs := make([]fleet.ShardSpec, len(shardURLs))
	for i, u := range shardURLs {
		specs[i] = fleet.ShardSpec{Name: shardNames[i], URL: u}
	}
	gw, err := fleet.NewGateway(fleet.Config{
		Shards: specs,
		// nevermindgw's flag defaults.
		Retry:         serve.RetryConfig{MaxAttempts: 6, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Seed: 42},
		ProbeInterval: time.Second,
		DrainTimeout:  10 * time.Second,
		// The transport newShardClient builds when none is given.
		Transport: &timingTransport{t: t, next: &http.Transport{
			MaxIdleConns: 64, MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second,
		}},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hostedGateway{
		gw:  gw,
		srv: &http.Server{Handler: t.middleware(gw.Handler()), ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(),
		err: make(chan error, 1),
	}
	gw.Start()
	go func() { h.err <- h.srv.Serve(ln) }()
	return h, nil
}

// close stops the server and the prober and waits for both.
func (h *hostedGateway) close() error {
	err := h.srv.Close()
	if serr := <-h.err; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.gw.Stop()
	return err
}

// writeSpans writes the spans as JSON lines, in start order.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats is the gateway layer of one request class, from the spans.
type layerStats struct {
	requests int
	self     float64 // mean gateway self time (handler minus union of legs), µs
	union    float64 // mean wall time covered by the request's legs, µs
	legs     int
	legBytes int64
}

// legStats is every client-request leg to one shard route.
type legStats struct {
	n    int
	time float64 // summed leg durations, µs
}

// gatewayLayers folds the spans into per-class gateway statistics and
// per-route leg statistics. Only spans of client requests (Req > 0) count.
func (t *tracer) gatewayLayers() (map[string]*layerStats, map[string]*legStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	legs := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && s.Req > 0 {
			legs[s.Parent] = append(legs[s.Parent], s)
		}
	}
	out := make(map[string]*layerStats)
	byRoute := make(map[string]*legStats)
	for _, s := range t.spans {
		if s.Parent != 0 || s.Req == 0 {
			continue
		}
		class := routeClass(s.Name[len("gateway "):])
		ls := out[class]
		if ls == nil {
			ls = &layerStats{}
			out[class] = ls
		}
		mine := legs[s.ID]
		u := union(mine)
		ls.requests++
		ls.self += us(s.dur() - u)
		ls.union += us(u)
		for _, l := range mine {
			ls.legs++
			ls.legBytes += l.Bytes
			route := l.Name[len("leg "):]
			if byRoute[route] == nil {
				byRoute[route] = &legStats{}
			}
			byRoute[route].n++
			byRoute[route].time += us(l.dur())
		}
	}
	for _, ls := range out {
		ls.self /= float64(ls.requests)
		ls.union /= float64(ls.requests)
	}
	return out, byRoute
}

// union returns the wall time the spans cover together.
func union(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	iv := append([]span(nil), ss...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var tot int64
	lo, hi := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > hi {
			tot += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return time.Duration(tot + hi - lo)
}

// routeClass maps an API path to its request class.
func routeClass(path string) string {
	switch path {
	case "/v1/score":
		return "score"
	case "/v1/rank":
		return "rank"
	case "/v1/locate":
		return "locate"
	case "/v1/ingest":
		return "ingest"
	}
	return "other"
}
