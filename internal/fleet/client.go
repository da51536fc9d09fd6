package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"nevermind/internal/serve"
)

// FaultHooks is the fleet's chaos seam, mirroring serve.FaultHooks: the
// chaos injector hands the gateway a ShardRequest hook that can fail a
// shard call before it leaves the client — the network-flake and
// shard-kill fault families ride through it.
type FaultHooks struct {
	// ShardRequest fires before every request to a shard; a non-nil error
	// is treated exactly like a network failure (retried with backoff, then
	// surfaced as the shard being unavailable).
	ShardRequest func(shard, route string) error
}

// Response is one shard's reply, captured fully so the gateway can relay it
// byte-for-byte: the whole 1-shard identity contract rests on nothing being
// re-encoded on the relay path.
type Response struct {
	Status      int
	ContentType string
	RetryAfter  string
	Body        []byte
}

// relay writes the shard response to the client verbatim.
func (r *Response) relay(w http.ResponseWriter) {
	if r.ContentType != "" {
		w.Header().Set("Content-Type", r.ContentType)
	}
	if r.RetryAfter != "" {
		w.Header().Set("Retry-After", r.RetryAfter)
	}
	w.WriteHeader(r.Status)
	w.Write(r.Body)
}

// ShardClient is the gateway's connection to one nevermindd shard: a pooled
// HTTP client plus the retry policy for transient failures. Retryable means
// the shard did not answer (network error, injected fault) or answered a
// load-shed 503 — the one response that is explicitly an invitation to come
// back after backoff (it carries Retry-After). Every other response,
// including an empty-store 503 or a request-timeout 503, is the shard's
// actual answer and is relayed untouched.
type ShardClient struct {
	name  string
	base  string
	index int
	hc    *http.Client
	retry serve.RetryConfig
	sleep func(time.Duration)
	hooks *FaultHooks

	// attempts counts tries beyond the first (the gateway's retry gauge
	// feeds from it); nil-safe.
	onRetry func()
}

// newShardClient builds a client for one shard. transport nil gets a pooled
// dedicated http.Transport; benchmarks and fuzz harnesses pass an in-process
// RoundTripper to cut the TCP stack out of the measurement.
func newShardClient(name, base string, index int, retry serve.RetryConfig, transport http.RoundTripper, sleep func(time.Duration)) *ShardClient {
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	return &ShardClient{
		name:  name,
		base:  base,
		index: index,
		hc:    &http.Client{Transport: transport},
		retry: retry.WithDefaults(),
		sleep: sleep,
	}
}

// Name returns the shard's ring name.
func (c *ShardClient) Name() string { return c.name }

// retryable reports whether a shard response asks to be retried rather than
// relayed: only the admission-control load shed does (503 + Retry-After).
func retryable(r *Response) bool {
	return r.Status == http.StatusServiceUnavailable && r.RetryAfter != ""
}

// Do sends one request to the shard with bounded retries on transient
// failures. It returns the shard's response — possibly an error response,
// which the caller relays — or an error after the attempt budget is spent
// without the shard answering. op keys the deterministic backoff stream.
func (c *ShardClient) Do(ctx context.Context, op, method, path, contentType string, body []byte) (*Response, error) {
	var lastErr error
	var lastShed *Response
	for attempt := 1; ; attempt++ {
		resp, err := c.roundTrip(ctx, method, path, contentType, body)
		if err == nil && !retryable(resp) {
			return resp, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastShed = resp
			lastErr = fmt.Errorf("load shed (503, Retry-After %s)", resp.RetryAfter)
		}
		if attempt >= c.retry.MaxAttempts || ctx.Err() != nil {
			if lastShed != nil && err == nil {
				// The shard is alive but shedding; its last answer is more
				// honest than a synthesized gateway error.
				return lastShed, nil
			}
			return nil, fmt.Errorf("shard %s unavailable: %w", c.name, lastErr)
		}
		if c.onRetry != nil {
			c.onRetry()
		}
		c.sleep(c.retry.Backoff(op, c.index, attempt))
	}
}

func (c *ShardClient) roundTrip(ctx context.Context, method, path, contentType string, body []byte) (*Response, error) {
	if h := c.hooks; h != nil && h.ShardRequest != nil {
		if err := h.ShardRequest(c.name, path); err != nil {
			return nil, err
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &Response{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		RetryAfter:  resp.Header.Get("Retry-After"),
		Body:        b,
	}, nil
}
