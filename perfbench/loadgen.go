package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the generator's connection and worker count: the host's two
// CPUs, so the generator never out-threads the machine it measures.
const maxConns = 2

// newClient returns an HTTP client that keeps exactly one connection alive.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// sample is the outcome of one timed request.
type sample struct {
	class string
	lat   time.Duration // response fully read minus the latency clock's start (see openLoop)
	svc   time.Duration // response fully read minus send
	late  time.Duration // generator's own lateness: send minus max(due, connection free)
	lag   time.Duration // send minus due: the schedule backlog it saw
	ok    bool          // 2xx and no transport error
}

// do sends one request and reads the whole response.
func do(ctx context.Context, hc *http.Client, base string, r *request, hdr http.Header) (status int, body []byte, err error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method(), base+r.path, rd)
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// openLoop sends reqs on their due schedule (offsets from now) over
// maxConns connections, each owned by one worker. Latency rule: a request
// that became due while every connection was busy is timed from its due
// time (the wait a stall imposes on later requests counts); a request whose
// connection was idle is timed from the moment it was sent, because the
// only wait was the generator's own timer, whose overshoot is reported
// separately as late. idHeader, when set, is stamped with the request's
// index so a traced gateway can join its spans to the client's.
func openLoop(ctx context.Context, base string, reqs []request, idHeader string) []sample {
	out := make([]sample, len(reqs))
	clients := make([]*http.Client, maxConns)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func(hc *http.Client) {
			defer wg.Done()
			for {
				free := time.Now()
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				r := &reqs[i]
				due := t0.Add(r.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				var hdr http.Header
				if idHeader != "" {
					hdr = http.Header{idHeader: {fmt.Sprint(i + 1)}}
				}
				send := time.Now()
				status, _, err := do(ctx, hc, base, r, hdr)
				end := time.Now()
				start, ready := send, due
				if free.After(due) {
					start, ready = due, free
				}
				out[i] = sample{
					class: r.class, lat: end.Sub(start), svc: end.Sub(send),
					late: send.Sub(ready), lag: send.Sub(due),
					ok: err == nil && status/100 == 2,
				}
			}
		}(clients[w])
	}
	wg.Wait()
	return out
}

// backlogLimit bounds how far behind schedule the generator may end a run:
// beyond it the queue was growing, and the run measured a backlog rather
// than a latency.
const backlogLimit = 500 * time.Millisecond

// finalBacklog is the median schedule lag over the last twentieth of the
// requests: how far behind schedule the run ended.
func finalBacklog(ss []sample) time.Duration {
	k := max(len(ss)/20, 1)
	lags := make([]float64, 0, k)
	for _, s := range ss[len(ss)-k:] {
		lags = append(lags, float64(s.lag))
	}
	return time.Duration(median(lags))
}
