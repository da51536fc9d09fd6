package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"nevermind/internal/data"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
)

// NewPipeline runs the weekly loop (serve.Pipeline) against a sharded fleet
// through the gateway it is embedded in: each week's feed goes through the
// gateway's own handler in-process, so the ring partitions it across the
// shards and the loop exercises exactly the routing and merging external
// clients see. A fleet keeps no local snapshot, so OnSnapshot is refused.
func NewPipeline(gw *Gateway, cfg serve.PipelineConfig) (*serve.Pipeline, error) {
	return serve.NewPipelineOver(gatewayBackend{&http.Client{Transport: HandlerTransport{gw.Handler()}}}, cfg)
}

// gatewayBackend is the pipeline's view of a fleet: gateway HTTP calls, with
// the replies mapped onto the pipeline's error taxonomy.
type gatewayBackend struct{ hc *http.Client }

// call performs one gateway request and classifies the reply into the
// pipeline's error taxonomy: a "bad batch" 400 reconstructs serve.ErrBadBatch
// (the sentinel survives the HTTP hop by its stable message prefix), any
// other 4xx is terminal, and 5xx — a down shard, a shed, a mid-rebuild
// failure — is transient.
func (b gatewayBackend) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://gateway"+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return nil, serve.Transient(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, serve.Transient(err)
	}
	if resp.StatusCode == http.StatusOK {
		return reply, nil
	}
	msg := string(reply)
	var ej struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(reply, &ej) == nil && ej.Error != "" {
		msg = ej.Error
	}
	if resp.StatusCode >= 500 {
		return nil, serve.Transient(errors.New(msg))
	}
	if rest, ok := strings.CutPrefix(msg, serve.ErrBadBatch.Error()); ok {
		return nil, fmt.Errorf("%w%s", serve.ErrBadBatch, rest)
	}
	return nil, errors.New(msg)
}

// Ingest posts the week to the gateway, which validates it whole and ingests
// each shard's slice in parallel (idempotently, shard by shard).
func (b gatewayBackend) Ingest(ctx context.Context, batch *sim.Batch) (serve.Ingested, error) {
	body, err := json.Marshal(serve.IngestRequestFor(batch))
	if err != nil {
		return serve.Ingested{}, err
	}
	reply, err := b.call(ctx, http.MethodPost, "/v1/ingest", body)
	if err != nil {
		return serve.Ingested{}, err
	}
	var rep ingestReply
	if err := json.Unmarshal(reply, &rep); err != nil {
		return serve.Ingested{}, fmt.Errorf("gateway reply: %w", err)
	}
	return serve.Ingested{Tests: rep.IngestedTests, Tickets: rep.IngestedTickets, Version: rep.Version}, nil
}

// fleetHealth is the part of the gateway's /healthz body the freshness
// check reads.
type fleetHealth struct {
	ShardsUp  int    `json:"shards_up"`
	ShardsAll int    `json:"shards_total"`
	Version   uint64 `json:"version"`
	GridLines int    `json:"grid_lines"`
	Shards    []struct {
		GridLines   int    `json:"grid_lines"`
		SnapshotLag uint64 `json:"snapshot_lag"`
	} `json:"shards"`
}

// errStaleFleet is the fleet's serve.ErrStale: some shard's ranking state
// trails the ingest.
var errStaleFleet = fmt.Errorf("fleet %w", serve.ErrStale)

// WaitFresh ranks the week fleet-wide, then asks the gateway's /healthz
// whether the fleet has absorbed the ingest: every shard up, the summed
// store version at least version, and every shard that holds grid data
// serving a snapshot with zero lag. A /v1/rank pass makes each such shard
// rebuild its snapshot (or keep serving the stale one if the rebuild
// fails), so only a rank taken immediately before an all-fresh healthz is
// accepted. The fleet's grid width — max over shards of (highest owned test
// line + 1) — equals the single store's, so a queue sized from it is too.
func (b gatewayBackend) WaitFresh(ctx context.Context, week int, version uint64) (serve.Fresh, error) {
	rank, err := b.call(ctx, http.MethodGet, "/v1/rank?week="+strconv.Itoa(week), nil)
	if err != nil {
		return serve.Fresh{}, err
	}
	var h fleetHealth
	hb, err := b.call(ctx, http.MethodGet, "/healthz", nil)
	if err != nil || json.Unmarshal(hb, &h) != nil || h.ShardsUp < h.ShardsAll || h.Version < version {
		return serve.Fresh{}, errStaleFleet
	}
	for _, s := range h.Shards {
		if s.GridLines > 0 && s.SnapshotLag != 0 {
			return serve.Fresh{}, errStaleFleet
		}
	}
	return serve.Fresh{GridLines: h.GridLines, TopN: func() ([]data.LineID, error) { return rankedLines(rank) }}, nil
}

// rankedLines reads the lines of a merged /v1/rank body: the fleet-wide
// budgeted TopN in rank order.
func rankedLines(body []byte) ([]data.LineID, error) {
	frags, err := splitArray(body, "predictions")
	if err != nil {
		return nil, err
	}
	lines := make([]data.LineID, len(frags))
	for i, frag := range frags {
		line, err := fieldInt(frag, "line")
		if err != nil {
			return nil, err
		}
		lines[i] = data.LineID(line)
	}
	return lines, nil
}
