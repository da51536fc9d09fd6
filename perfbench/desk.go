package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const (
	deskLines = 20000 // nevermindd's -lines default
	// setupRepeats is how many times an untraced run brings the system up;
	// setup_s is the median.
	setupRepeats = 3
)

// loadFigures summarises one open-loop window.
type loadFigures struct {
	reads, readFails     int
	ingests, ingestFails int
	ingestBytes          int64
	readMs               []float64         // failed reads count as the whole window
	sliceMs              map[int][]float64 // readMs by slice of the window
	lookupMs             []float64         // one-line scores
	svcMs                map[string][]float64
	classMs              map[string][]float64
	lateMs               []float64
	backlog              time.Duration
}

// summarize folds a window's samples; reads are also grouped by which
// slice-long part of the schedule they were due in.
func summarize(ss []sample, reqs []request, window, slice time.Duration) *loadFigures {
	f := &loadFigures{classMs: make(map[string][]float64), svcMs: make(map[string][]float64),
		sliceMs: make(map[int][]float64)}
	for i, s := range ss {
		if s.class == "" {
			continue // never sent: the run was interrupted
		}
		f.lateMs = append(f.lateMs, ms(s.late))
		lat := ms(s.lat)
		if s.class == "ingest" {
			f.ingests++
			f.ingestBytes += int64(len(reqs[i].body))
			if !s.ok {
				f.ingestFails++
			}
			f.classMs["ingest"] = append(f.classMs["ingest"], lat)
			continue
		}
		f.reads++
		if !s.ok {
			f.readFails++
			lat = ms(window) // a failed read misses any latency limit
		}
		f.readMs = append(f.readMs, lat)
		k := int(reqs[i].due / slice)
		f.sliceMs[k] = append(f.sliceMs[k], lat)
		f.classMs[s.class] = append(f.classMs[s.class], lat)
		if reqs[i].lookup {
			f.lookupMs = append(f.lookupMs, lat)
		}
		f.svcMs[s.class] = append(f.svcMs[s.class], ms(s.svc))
	}
	if len(ss) > 0 {
		f.backlog = finalBacklog(ss)
	}
	return f
}

// tailSlice is the slice length the sliced read p99 is computed over: a
// thousand reads, and on desk_feed exactly one ingest period, so each slice
// holds one rebuild stall.
func tailSlice(feed bool) time.Duration {
	if feed {
		return feedEvery
	}
	return 2500 * time.Millisecond
}

// sliceP99 is the median over slices of each slice's 99th percentile: one
// burst of host noise, or one unusually long stall, moves one slice's
// figure, not the reported one.
func sliceP99(slices map[int][]float64) float64 {
	var p99s []float64
	for _, v := range slices {
		p99s = append(p99s, quantile(v, 0.99))
	}
	return median(p99s)
}

// fmtSlices lists each slice's 99th percentile in schedule order.
func fmtSlices(slices map[int][]float64) string {
	keys := make([]int, 0, len(slices))
	for k := range slices {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%.1f ", quantile(slices[k], 0.99))
	}
	return strings.TrimSpace(b.String())
}

// account adds a window's requests to the outcome's attempted/failed counts
// and fails the run if the generator ended behind schedule.
func (o *outcome) account(f *loadFigures) {
	o.attempted += f.reads + f.ingests
	o.failed += f.readFails + f.ingestFails
	if f.backlog > backlogLimit {
		o.fail("generator ended %v behind schedule: a growing backlog, not a latency", f.backlog)
	}
}

// logLoad prints a window's client-side figures under the issue's names.
func (o *outcome) logLoad(label string, f *loadFigures) {
	o.logf("%s: %d reads (%d failed), %d ingests (%d failed); backlog at end %v",
		label, f.reads, f.readFails, f.ingests, f.ingestFails, f.backlog.Round(time.Microsecond))
	o.logf("  read_p50_ms %.4f  read_p99_ms %.4f  score_p50_ms %.4f  rank_p50_ms %.4f  locate_p50_ms %.4f  ingest_p50_ms %.4f",
		median(f.readMs), quantile(f.readMs, 0.99), median(f.classMs["score"]), median(f.classMs["rank"]),
		median(f.classMs["locate"]), median(f.classMs["ingest"]))
	o.logf("  read_p99_ms by slice of the schedule: %s (median %.4f)", fmtSlices(f.sliceMs), sliceP99(f.sliceMs))
	o.logf("  lookup_p50_ms %.4f (one-line scores)", median(f.lookupMs))
	o.logf("  error_frac %.6f  loadgen late_p99_ms %.4f",
		ratio(float64(f.readFails+f.ingestFails), float64(f.reads+f.ingests)), quantile(f.lateMs, 0.99))
}

// bringUpDesk starts the desk topology and runs its set-up: two shards and
// the gateway, the weeks 30-43 preload through the gateway, and the warm-up
// that makes every week table the reads touch resident.
func (e *env) bringUpDesk(ctx context.Context, st *stream) (*deskFleet, error) {
	fl, err := e.startShards(deskLines)
	if err != nil {
		return nil, err
	}
	if err := e.startGateway(fl); err != nil {
		fl.kill(e)
		return nil, err
	}
	if err := e.ingestAll(ctx, fl.gwURL, st.preload); err != nil {
		fl.kill(e)
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := e.send(ctx, fl.gwURL, st.warm); err != nil {
		fl.kill(e)
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return fl, nil
}

func runDesk(ctx context.Context, e *env, feed, trace bool, traceDir string) (*outcome, error) {
	ds, err := simulate(deskLines, e.seed)
	if err != nil {
		return nil, err
	}
	st, err := deskStream(ds, e.seed, e.seconds, feed)
	if err != nil {
		return nil, err
	}
	// desk_feed's writes re-deliver preloaded values, so the preload alone
	// leaves the reference where the fleet ends.
	ref, err := newReference(e.models)
	if err != nil {
		return nil, err
	}
	if err := ref.feed(ds, preloadFrom, preloadTo, nil); err != nil {
		return nil, err
	}
	want := ref.answers(st.probes)
	o := &outcome{correct: true}
	if trace {
		err = e.traceDesk(ctx, o, st, want, traceDir)
	} else {
		err = e.measureDesk(ctx, o, st, want)
	}
	if err != nil {
		return nil, err
	}
	o.finish(trace)
	return o, nil
}

// measureDesk is the untraced run. It brings a fresh fleet up
// setupRepeats times, timing each set-up, and drives each fleet through the
// next part of the schedule, so set-up, memory and the tail are medians
// over independent fleets.
func (e *env) measureDesk(ctx context.Context, o *outcome, st *stream, want []answer) error {
	window := time.Duration(e.seconds) * time.Second
	part := window / setupRepeats
	var setups, rss []float64
	var cpu, backlog time.Duration
	var ss []sample
	var reqs []request
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		fl, err := e.bringUpDesk(ctx, st)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		var mine []request
		for _, r := range st.timed {
			if r.due >= time.Duration(i)*part && r.due < time.Duration(i+1)*part {
				reqs = append(reqs, r)
				r.due -= time.Duration(i) * part
				mine = append(mine, r)
			}
		}
		if i == setupRepeats-1 {
			st.preload = nil
		}
		got, used, hwm, err := e.drive(ctx, fl, mine)
		if err == nil {
			err = e.checkProbes(ctx, fl.gwURL, st.probes, want)
		}
		fl.kill(e)
		if err != nil {
			o.fail("correctness gate: %v", err)
		}
		ss = append(ss, got...)
		backlog = max(backlog, finalBacklog(got))
		cpu += used
		rss = append(rss, hwm)
	}
	o.logf("setup: %.3f s each (%d fleets)", setups, setupRepeats)
	o.logf("host: %s", e.steal)
	f := summarize(ss, reqs, window, tailSlice(e.workload == "desk_feed"))
	f.backlog = backlog
	o.account(f)
	o.logLoad("measured", f)

	o.set("setup_s", "s", median(setups))
	// The gated latency is the one-line lookups' median, not the whole mix's:
	// on desk_feed about a quarter of reads queue behind rebuilds, which puts
	// the mix's median in the sparse gap between one-line and DSLAM scores,
	// where a small change in stall length moves it a lot. The lookups are
	// one unimodal class, so their median moves only as far as the stall
	// share does.
	o.set("p50_ms", "ms", median(f.lookupMs))
	o.set("cpu_ms_per_op", "ms", ratio(ms(cpu), float64(f.reads)))
	o.set("rss_mb", "MB", median(rss))
	return nil
}

// drive runs one open-loop schedule against a fleet and returns the
// samples, the servers' CPU over it and their summed peak RSS in MB.
func (e *env) drive(ctx context.Context, fl *deskFleet, reqs []request) ([]sample, time.Duration, float64, error) {
	settle()
	procs := fl.processes()
	before, err := sumStats(procs...)
	if err != nil {
		return nil, 0, 0, err
	}
	h0 := readHostCPU()
	ss := openLoop(ctx, fl.gwURL, reqs, "")
	e.steal.add(readHostCPU().sub(h0))
	after, err := sumStats(procs...)
	if err != nil {
		return nil, 0, 0, err
	}
	return ss, after.cpu - before.cpu, float64(after.hwmKB) / 1024, nil
}

// traceDesk is the traced run. One fleet is set up; the first half of the
// schedule runs untraced through the nevermindgw process (the gateway's
// CPU share and the untraced baseline for the tracing overhead), the second
// half through a gateway hosted in this process behind the timing
// middleware and transport (the spans).
func (e *env) traceDesk(ctx context.Context, o *outcome, st *stream, want []answer, traceDir string) error {
	fl, err := e.bringUpDesk(ctx, st)
	if err != nil {
		return err
	}
	defer fl.kill(e)
	half := time.Duration(e.seconds) * time.Second / 2
	var a, b []request
	for _, r := range st.timed {
		if r.due < half {
			a = append(a, r)
		} else {
			r.due -= half
			b = append(b, r)
		}
	}
	walDirs := []string{filepath.Join(fl.dir, shardNames[0]), filepath.Join(fl.dir, shardNames[1])}
	w := &window{}
	if w.before, err = scrapeAll(e.hc, fl.shardURLs); err != nil {
		return err
	}
	walBefore, err := walSegments(walDirs...)
	if err != nil {
		return err
	}

	// Phase A: untraced, through the nevermindgw process.
	st.preload = nil
	settle()
	shardA0, err := sumStats(fl.shards...)
	if err != nil {
		return err
	}
	gwA0, err := sumStats(fl.gw)
	if err != nil {
		return err
	}
	ssA := openLoop(ctx, fl.gwURL, a, "")
	shardA1, err := sumStats(fl.shards...)
	if err != nil {
		return err
	}
	gwA1, err := sumStats(fl.gw)
	if err != nil {
		return err
	}
	fA := summarize(ssA, a, half, tailSlice(e.workload == "desk_feed"))
	o.account(fA)
	o.logLoad("phase A (untraced, nevermindgw process)", fA)

	// Phase B: traced, through the hosted gateway.
	fl.gw.kill()
	e.procs.forget(fl.gw)
	fl.gw = nil
	t := newTracer()
	hg, err := hostGateway(t, fl.shardURLs)
	if err != nil {
		return err
	}
	defer hg.close()
	if err := e.waitHealthy(hg.url); err != nil {
		return err
	}
	// Warm the hosted gateway's connections; untagged requests leave no
	// client-request spans.
	if err := e.send(ctx, hg.url, st.warm); err != nil {
		return fmt.Errorf("warm-up of hosted gateway: %w", err)
	}
	settle()
	ssB := openLoop(ctx, hg.url, b, reqHeader)
	if w.after, err = scrapeAll(e.hc, fl.shardURLs); err != nil {
		return err
	}
	walAfter, err := walSegments(walDirs...)
	if err != nil {
		return err
	}
	fB := summarize(ssB, b, half, tailSlice(e.workload == "desk_feed"))
	o.account(fB)
	o.logLoad("phase B (traced, hosted gateway)", fB)
	if err := e.checkProbes(ctx, hg.url, st.probes, want); err != nil {
		o.fail("correctness gate: %v", err)
	}
	if err := t.writeSpans(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))); err != nil {
		return err
	}

	w.ingests = fA.ingests + fB.ingests
	w.ingestBytes = fA.ingestBytes + fB.ingestBytes
	w.walGrowth = growth(walBefore, walAfter)
	o.serveLayers(w)

	late := append(append([]float64(nil), fA.lateMs...), fB.lateMs...)
	o.set("loadgen.late_p99_ms", "ms", quantile(late, 0.99))
	o.set("client.read_p50_ms", "ms", median(fB.readMs))
	o.set("client.read_p99_ms", "ms", sliceP99(fB.sliceMs))
	for _, c := range classes {
		o.set("client."+c+"_p50_ms", "ms", median(fB.classMs[c]))
	}
	o.set("trace.overhead_read_p50_ms", "ms", median(fB.readMs)-median(fA.readMs))
	o.set("fleet.cpu_ms_per_req", "ms", ratio(ms(gwA1.cpu-gwA0.cpu), float64(fA.reads)))
	o.set("serve.cpu_ms_per_req", "ms", ratio(ms(shardA1.cpu-shardA0.cpu), float64(fA.reads)))

	// Gateway layers from the spans. wire is a leg's time outside the
	// shard's handler: per shard route, mean leg time minus the shards' mean
	// handler time for that route, weighted by the route's legs.
	layers, routes := t.gatewayLayers()
	var reqs int
	var legBytes int64
	for _, ls := range layers {
		reqs += ls.requests
		legBytes += ls.legBytes
	}
	var wireSum float64
	var legs int
	for path, rs := range routes {
		handler, _ := w.handlerMean(strings.TrimPrefix(strings.TrimPrefix(path, "/v1/"), "/"))
		wireSum += rs.time - handler*float64(rs.n)
		legs += rs.n
	}
	wire := ratio(wireSum, float64(legs))
	o.set("fleet.wire_us", "us", wire)
	o.set("fleet.leg_bytes_per_req", "B", ratio(float64(legBytes), float64(reqs)))
	for _, c := range []string{"score", "rank", "locate"} {
		ls := layers[c]
		if ls == nil {
			continue
		}
		o.set("fleet.self_us."+c, "us", ls.self)
		o.set("fleet.legs_per_req."+c, "count", ratio(float64(ls.legs), float64(ls.requests)))
		// Additivity on means: the client's send-to-response time should be
		// one loopback hop (estimated by the legs' wire time) plus the
		// gateway's self time plus the time its legs cover.
		client := mean(fB.svcMs[c]) * 1e3
		parts := wire + ls.self + ls.union
		o.set("trace.additivity_gap."+c, "frac", (client-parts)/client)
		o.logf("additivity %-6s client %.1f us = hop %.1f + gateway self %.1f + legs %.1f (+ %.1f unexplained)",
			c, client, wire, ls.self, ls.union, client-parts)
	}
	return nil
}
