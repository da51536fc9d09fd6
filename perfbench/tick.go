package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	// tickLines is the tick population, 1.6x desk's. At 64K lines one run
	// took 96 s and the daemon alone peaked at 2.2 GB resident, which does
	// not fit the benchmark's time budget on a 2-CPU host.
	tickLines = 32768
	tickRankN = tickLines / 50 // the 2% budget
	// tickLifecycles is the minimum number of fresh daemons a tick run sets
	// up, each running the eight-week loop once; more run until -seconds
	// have passed.
	tickLifecycles = 3
)

// tickFigures accumulates the tick loop over lifecycles.
type tickFigures struct {
	setups    []float64
	ticks     []float64 // per week, s
	opMs      []float64 // every timed request: ingest batches and ranks
	ingestMs  []float64
	rankMs    []float64
	spanMs    []float64 // per week: the sum of its requests' client spans
	rss       []float64
	cpu       time.Duration
	requests  int
	failed    int
	bytes     int64
	walGrowth int64
	before    []series
	after     []series
}

func runTick(ctx context.Context, e *env, trace bool) (*outcome, error) {
	ds, err := simulate(tickLines, e.seed)
	if err != nil {
		return nil, err
	}
	st, err := tickStream(ds)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(e.models)
	if err != nil {
		return nil, err
	}
	want := make([][]byte, len(st.weeks))
	err = ref.feed(ds, preloadFrom, tickTo, func(week int) error {
		if week < tickFrom {
			return nil
		}
		rr := rankReq(week, tickRankN)
		code, body := ref.serve(&rr)
		if code != 200 {
			return fmt.Errorf("reference rank week %d: %d %s", week, code, body)
		}
		want[week-tickFrom] = body
		return nil
	})
	if err != nil {
		return nil, err
	}

	o := &outcome{correct: true}
	f := &tickFigures{}
	start := time.Now()
	for n := 0; n < tickLifecycles || time.Since(start) < time.Duration(e.seconds)*time.Second; n++ {
		if err := e.tickLifecycle(ctx, o, f, st, want, trace); err != nil {
			return nil, err
		}
		if trace {
			break // one lifecycle: the per-layer deltas cover one daemon
		}
	}
	o.attempted, o.failed = f.requests, f.failed
	o.logf("setup: %.3f s each (%d lifecycles)", f.setups, len(f.setups))
	o.logf("host: %s", e.steal)
	o.logf("tick_s %.4f (median of %d weeks)  ingest_p50_ms %.4f  rank_p50_ms %.4f  p99_ms %.4f  cpu_s_per_tick %.4f  error_frac %.6f",
		median(f.ticks), len(f.ticks), median(f.ingestMs), median(f.rankMs), quantile(f.opMs, 0.99),
		f.cpu.Seconds()/float64(len(f.ticks)), ratio(float64(f.failed), float64(f.requests)))

	if !trace {
		o.set("setup_s", "s", median(f.setups))
		// The Saturday run's user waits for a whole week: its ingest batches
		// and the new rank. A batch's own latency depends on whether the
		// background checkpoint overlapped it, so its median is noisier.
		o.set("p50_ms", "ms", median(f.ticks)*1e3)
		o.set("cpu_ms_per_op", "ms", ratio(ms(f.cpu), float64(f.requests)))
		o.set("rss_mb", "MB", median(f.rss))
	} else {
		w := &window{before: f.before, after: f.after, ingests: len(f.ingestMs), ingestBytes: f.bytes, walGrowth: f.walGrowth}
		o.serveLayers(w)
		o.set("serve.cpu_ms_per_req", "ms", ratio(ms(f.cpu), float64(f.requests)))
		o.set("serve.rank_after_ingest_ms", "ms", median(f.rankMs))
		o.set("client.rank_p50_ms", "ms", median(f.rankMs))
		o.set("client.read_p50_ms", "ms", median(f.rankMs))
		o.set("client.read_p99_ms", "ms", quantile(f.rankMs, 0.99))
		o.set("client.ingest_p50_ms", "ms", median(f.ingestMs))
		o.set("client.tick_s", "s", median(f.ticks))
		// Additivity on means: a week's wall time is its requests' client
		// spans plus the generator's own gaps between them.
		tick := mean(f.ticks) * 1e3
		o.set("trace.additivity_gap.tick", "frac", (tick-mean(f.spanMs))/tick)
	}
	o.finish(trace)
	return o, nil
}

// awaitCheckpoint scrapes the daemon once the background checkpoint the
// loop's versions called for has been written: on a 32K-line store one
// takes seconds, running concurrently with the ticks that follow its
// trigger.
func (e *env) awaitCheckpoint(url string) ([]series, error) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		after, err := scrapeAll(e.hc, []string{url})
		if err != nil {
			return nil, err
		}
		v := after[0]["nevermind_store_version"]
		due := float64(int(v) / checkpointEvery * checkpointEvery)
		if after[0]["nevermind_checkpoint_last_version"] >= due || time.Now().After(deadline) {
			return after, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkpointEvery is nevermindd's -checkpoint.every default.
const checkpointEvery = 256

// tickLifecycle starts a fresh bare daemon with the WAL on, preloads it,
// runs weeks tickFrom..tickTo as a closed loop on one connection, checks
// every week's rank against the reference and stops the daemon. Traced, it
// also records the daemon's /metrics and WAL growth across the loop.
func (e *env) tickLifecycle(ctx context.Context, o *outcome, f *tickFigures, st *stream, want [][]byte, trace bool) error {
	dir, err := os.MkdirTemp(e.work, "tick-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walDir := filepath.Join(dir, "wal")
	t0 := time.Now()
	d, url, err := e.procs.start("tick daemon", e.daemon, listenTimeout, e.daemonArgs(tickLines, walDir)...)
	if err != nil {
		return err
	}
	defer func() {
		d.kill()
		e.procs.forget(d)
	}()
	if err := e.ingestAll(ctx, url, st.preload); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	// Warm-up: the newest preloaded week's ranking builds the snapshot.
	warm := rankReq(preloadTo, tickRankN)
	if err := e.send(ctx, url, []request{warm}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	f.setups = append(f.setups, time.Since(t0).Seconds())

	var before []series
	var walBefore map[string]int64
	if trace {
		if before, err = scrapeAll(e.hc, []string{url}); err != nil {
			return err
		}
		if walBefore, err = walSegments(walDir); err != nil {
			return err
		}
	}
	settle()
	s0, err := sumStats(d)
	if err != nil {
		return err
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	timed := func(r *request) (time.Duration, []byte, error) {
		t := time.Now()
		status, body, err := do(ctx, hc, url, r, nil)
		lat := time.Since(t)
		f.requests++
		f.opMs = append(f.opMs, ms(lat))
		if err == nil && status/100 != 2 {
			err = fmt.Errorf("%s %s: %d %.300s", r.method(), r.path, status, body)
		}
		if err != nil {
			f.failed++
		}
		return lat, body, err
	}
	h0 := readHostCPU()
	for i, batches := range st.weeks {
		week := tickFrom + i
		var spans time.Duration
		tw := time.Now()
		for _, b := range batches {
			r := request{class: "ingest", path: "/v1/ingest", body: b}
			lat, _, err := timed(&r)
			if err != nil {
				return err
			}
			spans += lat
			f.ingestMs = append(f.ingestMs, ms(lat))
			f.bytes += int64(len(b))
		}
		rr := rankReq(week, tickRankN)
		lat, body, err := timed(&rr)
		if err != nil {
			return err
		}
		tick := time.Since(tw)
		spans += lat
		f.rankMs = append(f.rankMs, ms(lat))
		f.ticks = append(f.ticks, tick.Seconds())
		f.spanMs = append(f.spanMs, ms(spans))
		if !sameAnswer(body, want[i]) {
			o.fail("correctness gate: %v", mismatch(&rr, 200, body, 200, want[i]))
		}
	}
	// The loop's versions call for one background checkpoint, which takes
	// seconds on this store; its CPU and memory count as the loop's.
	after, err := e.awaitCheckpoint(url)
	if err != nil {
		return err
	}
	e.steal.add(readHostCPU().sub(h0))
	s1, err := sumStats(d)
	if err != nil {
		return err
	}
	f.cpu += s1.cpu - s0.cpu
	f.rss = append(f.rss, float64(s1.hwmKB)/1024)
	if trace {
		walAfter, err := walSegments(walDir)
		if err != nil {
			return err
		}
		f.before, f.after = before, after
		f.walGrowth = growth(walBefore, walAfter)
	}
	return nil
}
