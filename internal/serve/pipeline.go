package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"nevermind/internal/atds"
	"nevermind/internal/data"
	"nevermind/internal/obs"
	"nevermind/internal/rng"
	"nevermind/internal/sim"
)

// Source is the pipeline's input feed: one weekly batch per successful Next,
// ok == false on exhaustion. The error return is the seam a real telemetry
// feed (and the chaos layer standing in for one) needs: a pull can fail
// transiently, or deliver a batch that later fails ingest validation. The
// re-delivery contract: after a pull error or a bad-batch rejection, the
// next Next call re-serves the same week — a week is consumed only once it
// has been delivered cleanly. A failed pull still names its week: the batch
// returned beside a pull error carries the pending week in Week (and no
// records), so retries, backoff, spans and the terminal error name the week
// being pulled. The simulator's never-failing stream trivially satisfies
// this because it never errors.
type Source interface {
	Remaining() int
	Next() (sim.Batch, bool, error)
}

// simFeed adapts the simulator's infallible stream to the Source contract.
type simFeed struct{ src *sim.Source }

func (f simFeed) Remaining() int { return f.src.Remaining() }
func (f simFeed) Next() (sim.Batch, bool, error) {
	b, ok := f.src.Next()
	return b, ok, nil
}

// SimFeed wraps a simulator stream as a pipeline Source.
func SimFeed(src *sim.Source) Source { return simFeed{src} }

// RetryConfig bounds how hard the pipeline fights a failing week before
// giving up: each of a week's operations (pull, ingest, snapshot refresh)
// shares one attempt budget, and failed attempts back off exponentially
// with deterministic jitter.
type RetryConfig struct {
	// MaxAttempts is the per-week attempt budget (default 6).
	MaxAttempts int
	// BaseDelay is the first backoff (default 50ms); each retry doubles it
	// up to MaxDelay (default 2s). The actual sleep is jittered uniformly
	// in [delay/2, delay) from a seeded stream, so a fleet of retriers
	// cannot synchronise into a thundering herd yet a given seed replays
	// the exact same schedule.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the jitter stream.
	Seed uint64
}

// WithDefaults fills the zero fields with the defaults documented above.
func (r RetryConfig) WithDefaults() RetryConfig {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 6
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 50 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 2 * time.Second
	}
	return r
}

// Backoff returns a defaulted config's jittered exponential delay for the
// given attempt (1-based) of operation op on key (the pipeline's week):
// min(Base<<(attempt-1), Max) scaled into [1/2, 1). The fleet gateway's
// shard client backs off with it too, so the whole system follows one
// policy and replays deterministically from one seed.
func (r RetryConfig) Backoff(op string, key, attempt int) time.Duration {
	d := r.BaseDelay << uint(attempt-1)
	if d > r.MaxDelay || d <= 0 { // <= 0 guards shift overflow
		d = r.MaxDelay
	}
	var oph uint64
	for _, c := range op {
		oph = oph*131 + uint64(c)
	}
	j := rng.Derive(r.Seed, oph, uint64(key), uint64(attempt)).Float64()
	return d/2 + time.Duration(float64(d/2)*j)
}

// RetryEvent describes one failed attempt the pipeline is about to back off
// from; OnRetry observers get it before the sleep.
type RetryEvent struct {
	Week    int
	Op      string // "pull", "ingest", "snapshot"
	Attempt int
	Err     error
	Backoff time.Duration
}

// PipelineConfig drives the weekly serving loop.
type PipelineConfig struct {
	// Source feeds one simulated week per tick (the production stand-in for
	// the telemetry feed). Wrap a *sim.Source with SimFeed.
	Source Source
	// Queue is the ATDS work queue predictions are dispatched into; nil
	// builds a default-sized queue on the first batch.
	Queue *atds.Queue
	// Tick is the wall-clock interval between simulated weeks; <= 0 runs
	// the whole stream back to back (the smoke-test mode).
	Tick time.Duration
	// Retry bounds the per-week retry budget and backoff schedule.
	Retry RetryConfig
	// Sleep, when set, replaces time.Sleep for backoff waits — the soak
	// tests inject an instant fake to run years of faults in seconds.
	Sleep func(time.Duration)
	// OnSnapshot, when set, observes each newly completed week with the
	// fresh snapshot it was ranked from — the drift monitors' feed. It runs
	// after the exactly-once guard, so a re-delivered or replayed week is
	// never observed twice. Only the daemon's own store has a snapshot to
	// observe; NewPipelineOver refuses it.
	OnSnapshot func(sn *Snapshot, week int)
	// OnWeek, when set, observes each completed week.
	OnWeek func(WeekReport)
	// OnRetry, when set, observes each backed-off attempt.
	OnRetry func(RetryEvent)
}

// WeekReport is what one pipeline tick did: the week it ingested and
// ranked, the data volumes, the dispatch outcomes of the seven days the
// ATDS queue advanced, and how many faults it had to retry through.
type WeekReport struct {
	Week            int
	IngestedTests   int
	IngestedTickets int
	Submitted       int // predicted jobs pushed into ATDS
	Pending         int // queue depth after the week's dispatching
	Retries         int // attempts that failed and were retried
	Stats           atds.Stats
}

// Backend is the store the weekly loop drives: the daemon's own (NewPipeline)
// or a sharded fleet behind its gateway (fleet.NewPipeline). Errors follow
// the pipeline's taxonomy: ErrBadBatch makes it pull the week again, a
// Transient error makes it repeat the operation after backoff, and anything
// else stops the loop.
type Backend interface {
	// Ingest applies one delivered week. On error nothing is applied, so the
	// same batch may be sent again (records overwrite per (line, week) and
	// tickets dedup).
	Ingest(ctx context.Context, batch *sim.Batch) (Ingested, error)
	// WaitFresh returns ErrStale until the backend ranks over every ingest
	// up to version, then the week's ranking inputs.
	WaitFresh(ctx context.Context, week int, version uint64) (Fresh, error)
}

// Ingested is what a backend applied of one weekly batch, and the store
// version a ranking must reach to include it.
type Ingested struct {
	Tests, Tickets int
	Version        uint64
}

// Fresh is a backend caught up with a week's ingest.
type Fresh struct {
	// GridLines is the width of the line-id grid; it sizes a default queue.
	GridLines int
	// TopN returns the week's budgeted ranking, best first. The pipeline
	// calls it only for a week it dispatches.
	TopN func() ([]data.LineID, error)
	// snapshot is the daemon's fresh snapshot, the one OnSnapshot observes.
	snapshot *Snapshot
}

// Pipeline is the weekly loop of §3.2: every tick it pulls the next week of
// line tests from the source, ingests them into the backend, ranks the
// population with the current model generation, submits the budgeted TopN
// into the ATDS queue alongside the week's customer tickets, advances the
// queue through the seven days, and accumulates outcome stats.
//
// The loop is built to survive a misbehaving feed: transient pull and
// ingest errors retry with bounded exponential backoff, a batch that fails
// validation is discarded and the week re-pulled, and a stale backend is
// retried until fresh — so a ranking never runs over partial data. Only an
// error that persists through the whole attempt budget, or one not marked
// transient, stops the loop; each week is dispatched into ATDS exactly once.
type Pipeline struct {
	be        Backend
	m         *metrics // the daemon's stage spans and pipeline series; nil over a fleet
	cfg       PipelineConfig
	total     atds.Stats
	lastWeek  int // last week dispatched into ATDS (exactly-once guard)
	haveWeeks bool
}

// NewPipeline binds a pipeline to a server's store.
func NewPipeline(srv *Server, cfg PipelineConfig) (*Pipeline, error) {
	return newPipeline(storeBackend{srv}, srv.m, cfg)
}

// NewPipelineOver binds a pipeline to another backend, feeding no metrics.
func NewPipelineOver(be Backend, cfg PipelineConfig) (*Pipeline, error) {
	if cfg.OnSnapshot != nil {
		return nil, fmt.Errorf("serve: pipeline backend has no local snapshot for OnSnapshot")
	}
	return newPipeline(be, nil, cfg)
}

func newPipeline(be Backend, m *metrics, cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("serve: pipeline needs a source")
	}
	cfg.Retry = cfg.Retry.WithDefaults()
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Pipeline{be: be, m: m, cfg: cfg}, nil
}

// Totals returns the outcome stats accumulated across all completed weeks.
func (p *Pipeline) Totals() atds.Stats { return p.total }

// Run executes the loop until the source is exhausted or ctx is cancelled.
func (p *Pipeline) Run(ctx context.Context) error {
	var tick <-chan time.Time
	if p.cfg.Tick > 0 {
		t := time.NewTicker(p.cfg.Tick)
		defer t.Stop()
		tick = t.C
	}
	for p.cfg.Source.Remaining() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := p.Step(ctx); err != nil {
			return err
		}
		if tick != nil && p.cfg.Source.Remaining() > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-tick:
			}
		}
	}
	return nil
}

// retry records a failed attempt, backs off, and reports whether the budget
// still has room. attempt is the week's running attempt counter.
func (p *Pipeline) retry(rep *WeekReport, op string, week int, attempt *int, cause error) bool {
	*attempt++
	if *attempt >= p.cfg.Retry.MaxAttempts {
		return false
	}
	d := p.cfg.Retry.Backoff(op, week, *attempt)
	rep.Retries++
	if p.m != nil {
		p.m.pipelineRetries.Add(1)
		p.m.retriesByOp.With(op).Add(1)
	}
	if p.cfg.OnRetry != nil {
		p.cfg.OnRetry(RetryEvent{Week: week, Op: op, Attempt: *attempt, Err: cause, Backoff: d})
	}
	p.cfg.Sleep(d)
	return true
}

// stageSpan couples one stage execution's trace span with its duration
// observation: end commits the span to the ring and feeds the per-stage
// latency histogram in one call, so the two can never disagree about what
// counts as one execution.
type stageSpan struct {
	span *obs.ActiveSpan
	obsv func(time.Duration)
	t0   time.Time
	done bool
}

// beginStage opens a span for one execution of a pipeline stage. Without
// daemon metrics (a pipeline over a fleet) the span records nothing.
func (m *metrics) beginStage(stage string, week int) *stageSpan {
	if m == nil {
		return &stageSpan{done: true}
	}
	return &stageSpan{
		span: m.tracer.Start(stage, week),
		obsv: m.stageDur.With(stage).Observe,
		t0:   time.Now(),
	}
}

func (ss *stageSpan) end() {
	if ss.done {
		return
	}
	ss.done = true
	ss.span.End()
	ss.obsv(time.Since(ss.t0))
}

// Step runs one tick: ingest the next week, rank, dispatch, advance. It
// returns ok == false once the source is exhausted.
func (p *Pipeline) Step(ctx context.Context) (ok bool, err error) {
	var rep WeekReport
	var batch sim.Batch
	var in Ingested
	attempt := 0

	// Pull + ingest with a shared bounded attempt budget. Error classes:
	//   - transient pull error: nothing was delivered; back off, re-pull.
	//   - bad batch (ErrBadBatch): the backend rejected the delivery whole;
	//     back off, re-pull — the feed re-serves the week.
	//   - transient ingest error: the validated batch hit an injected or
	//     real infrastructure fault (a shard down, a shed) before any state
	//     change; back off and re-ingest the same batch.
	//   - anything else is terminal for the loop.
pull:
	for {
		psp := p.m.beginStage("pull", rep.Week)
		b, more, perr := p.cfg.Source.Next()
		if !more {
			psp.end()
			return false, nil
		}
		batch = b
		rep.Week = batch.Week
		psp.span.Week(batch.Week).Attempt(attempt + 1).Fail(perr)
		psp.end()
		if perr != nil {
			if !IsTransient(perr) {
				return false, fmt.Errorf("serve: pipeline week %d pull: %w", batch.Week, perr)
			}
			if !p.retry(&rep, "pull", batch.Week, &attempt, perr) {
				return false, fmt.Errorf("serve: pipeline week %d pull failed after %d attempts: %w",
					batch.Week, attempt, perr)
			}
			continue
		}
		for {
			isp := p.m.beginStage("ingest", batch.Week)
			var ierr error
			in, ierr = p.be.Ingest(ctx, &batch)
			isp.span.Attempt(attempt + 1).Fail(ierr)
			isp.end()
			if ierr == nil {
				break pull
			}
			switch {
			case IsBadBatch(ierr):
				if !p.retry(&rep, "ingest", batch.Week, &attempt, ierr) {
					return false, fmt.Errorf("serve: pipeline week %d: bad batches exhausted %d attempts: %w",
						batch.Week, attempt, ierr)
				}
				continue pull // discard the delivery, re-pull the week
			case IsTransient(ierr):
				if !p.retry(&rep, "ingest", batch.Week, &attempt, ierr) {
					return false, fmt.Errorf("serve: pipeline week %d ingest failed after %d attempts: %w",
						batch.Week, attempt, ierr)
				}
				continue // same batch, retry the ingest
			default:
				return false, fmt.Errorf("serve: pipeline week %d ingest: %w", batch.Week, ierr)
			}
		}
	}
	rep.IngestedTests, rep.IngestedTickets = in.Tests, in.Tickets

	// The ranking must see this week's data: until the backend has caught
	// up with the ingest's version (a failed rebuild leaves the API serving
	// the old snapshot), the pipeline backs off and asks again.
	var fr Fresh
	for {
		ssp := p.m.beginStage("snapshot", batch.Week)
		if fr, err = p.be.WaitFresh(ctx, batch.Week, in.Version); err == nil {
			ssp.end()
			break
		}
		// Degraded: this attempt ran against stale state.
		ssp.span.Attempt(attempt + 1).Fail(err).Degraded()
		ssp.end()
		if !errors.Is(err, ErrStale) && !IsTransient(err) {
			return false, fmt.Errorf("serve: pipeline week %d rank: %w", batch.Week, err)
		}
		if !p.retry(&rep, "snapshot", batch.Week, &attempt, err) {
			return false, fmt.Errorf("serve: pipeline week %d: %w after %d attempts",
				batch.Week, err, attempt)
		}
	}

	if p.cfg.Queue == nil {
		q, err := atds.NewQueue(atds.DefaultConfig(fr.GridLines), data.SaturdayOf(batch.Week))
		if err != nil {
			return false, err
		}
		p.cfg.Queue = q
	}

	// Exactly-once dispatch: a week enters ATDS the first time it completes
	// ingest+rank, never again (a re-served or replayed week would
	// otherwise double the dispatch load).
	if p.haveWeeks && batch.Week <= p.lastWeek {
		return true, nil
	}

	// Saturday ranking run: budgeted TopN into the dispatch queue.
	top, err := fr.TopN()
	if err != nil {
		return false, fmt.Errorf("serve: pipeline week %d rank: %w", batch.Week, err)
	}
	for rank, l := range top {
		p.cfg.Queue.Submit(l, atds.PriorityPredicted, rank)
	}
	rep.Submitted = len(top)

	// The week's customer tickets contend for the same capacity and always
	// win it (§3.2). The first batch also backfills the full ticket history
	// for the time-since-ticket features; only tickets that actually arrived
	// this week are new work for the queue.
	dsp := p.m.beginStage("dispatch", batch.Week)
	weekStart := data.SaturdayOf(batch.Week) - 6
	for _, t := range batch.Tickets {
		if t.Day >= weekStart {
			p.cfg.Queue.Submit(t.Line, atds.PriorityCustomer, 0)
		}
	}
	p.lastWeek, p.haveWeeks = batch.Week, true

	// Advance the dispatch system through the week.
	var outcomes []atds.Outcome
	for d := 0; d < 7; d++ {
		outcomes = append(outcomes, p.cfg.Queue.Advance()...)
	}
	rep.Stats = atds.Summarize(outcomes)
	rep.Pending = p.cfg.Queue.Pending()
	p.total.Add(rep.Stats)
	dsp.end()

	if m := p.m; m != nil {
		m.pipelineTicks.Add(1)
		m.pipelineWeek.Set(int64(batch.Week))
		m.pipelineSubmitted.Add(int64(rep.Submitted))
		m.pipelineWorked.Add(int64(rep.Stats.Predicted))
		m.pipelineExpired.Add(int64(rep.Stats.ExpiredPredicted))
	}

	if p.cfg.OnSnapshot != nil {
		p.cfg.OnSnapshot(fr.snapshot, batch.Week)
	}
	if p.cfg.OnWeek != nil {
		p.cfg.OnWeek(rep)
	}
	return true, nil
}

// IngestRequestFor renders one simulated week as the /v1/ingest request shape.
func IngestRequestFor(batch *sim.Batch) IngestRequest {
	req := IngestRequest{
		Tests:   make([]TestRecord, len(batch.Tests)),
		Tickets: make([]TicketRecord, len(batch.Tickets)),
	}
	for i, t := range batch.Tests {
		req.Tests[i] = TestRecord{
			Line: t.M.Line, Week: t.M.Week, Missing: t.M.Missing, F: t.M.F[:],
			Profile: t.Profile, DSLAM: t.DSLAM, Usage: t.Usage,
		}
	}
	for i, t := range batch.Tickets {
		req.Tickets[i] = TicketRecord{ID: t.ID, Line: t.Line, Day: t.Day, Category: uint8(t.Category)}
	}
	return req
}

// storeBackend is the daemon's own store, driven through the same ingest
// path the HTTP API uses and ranked from the snapshot its handlers serve.
type storeBackend struct{ srv *Server }

// Ingest applies the batch as /v1/ingest applies a body. A batch that fails
// validation leaves the store unchanged: the whole batch is validated before
// anything is applied. Injected faults differ by seam: the IngestTests seam
// fires before the tests are applied, but the IngestTickets seam fires after
// them, so a ticket fault leaves the tests applied at a new version (the
// retry writes the same values again). Chaos schedules roll their faults in
// that seam order, so it stays.
func (b storeBackend) Ingest(_ context.Context, batch *sim.Batch) (Ingested, error) {
	req := IngestRequestFor(batch)
	tests, tickets, err := b.srv.ingest(&req)
	if err != nil {
		return Ingested{}, err
	}
	return Ingested{Tests: tests, Tickets: tickets, Version: b.srv.Store().Version()}, nil
}

// WaitFresh is stale while the snapshot trails version: a rebuild failed
// and the store still serves the pre-ingest snapshot.
func (b storeBackend) WaitFresh(_ context.Context, week int, version uint64) (Fresh, error) {
	sn := b.srv.Store().Snapshot()
	if sn == nil || sn.Version < version {
		return Fresh{}, ErrStale
	}
	return Fresh{
		GridLines: sn.DS.NumLines,
		TopN:      func() ([]data.LineID, error) { return b.topN(sn, week) },
		snapshot:  sn,
	}, nil
}

// topN ranks the week's population and keeps the budget. The week's score
// table is shared with the HTTP handlers — when the API already ranked at
// least the budget on this (snapshot, week), the pipeline's run is a lookup.
func (b storeBackend) topN(sn *Snapshot, week int) ([]data.LineID, error) {
	if len(sn.LinesAt(week)) == 0 {
		return nil, nil
	}
	m, models := b.srv.m, b.srv.Models()
	scsp := m.beginStage("score", week)
	tab, err := sn.scoreTable(models, week)
	scsp.span.Fail(err)
	scsp.end()
	if err != nil {
		return nil, err
	}
	rksp := m.beginStage("rank", week)
	defer rksp.end()
	return tab.rankedLines(sn, models.Pred.Cfg.BudgetN), nil
}
