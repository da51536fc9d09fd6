package nevermind

// One benchmark per table and figure of the paper's evaluation, each
// regenerating its artifact at reduced scale and reporting the headline
// value as a custom metric, plus ablation benches for the design choices
// called out in DESIGN.md. Full-scale renderings come from
// `go run ./cmd/experiments`.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/drift"
	"nevermind/internal/dsl"
	"nevermind/internal/eval"
	"nevermind/internal/faults"
	"nevermind/internal/features"
	"nevermind/internal/fleet"
	"nevermind/internal/ml"
	"nevermind/internal/replica"
	"nevermind/internal/rng"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
	"nevermind/internal/wal"
)

// benchCtx builds one shared small-scale experiment context.
var (
	benchOnce sync.Once
	benchC    *eval.Context
	benchErr  error
)

func benchContext(b *testing.B) *eval.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchC, benchErr = eval.NewContext(eval.Config{
			Lines: 4000, Seed: 17, Rounds: 80, LocRounds: 40,
			MaxSelectExamples: 15000, TestWeeks: []int{43, 44},
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchC
}

func BenchmarkSimulateYear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.DefaultConfig(4000, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates the per-feature AP(N) distributions (Fig. 4) and
// reports how many product features beat the selection threshold.
func BenchmarkFig4(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.RunFig4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ProductKept), "products-kept")
		b.ReportMetric(topScore(res.HistCust), "best-histcust-AP")
	}
}

func topScore(xs []eval.NamedScore) float64 {
	best := 0.0
	for _, x := range xs {
		if x.Score > best {
			best = x.Score
		}
	}
	return best
}

// BenchmarkFig6 regenerates the feature-selection comparison (Fig. 6) and
// reports the budget-point accuracy of the paper's method and the AUC
// baseline.
func BenchmarkFig6(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.RunFig6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Curves["top-N AP"][2], "topNAP-acc@budget")
		b.ReportMetric(res.Curves["AUC"][2], "AUC-acc@budget")
	}
}

// BenchmarkFig7 regenerates the derived-features comparison (Fig. 7).
func BenchmarkFig7(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WithAtBudget, "acc-with-derived")
		b.ReportMetric(res.WithoutAtBudget, "acc-without")
	}
}

// BenchmarkFig8 regenerates the time-to-ticket CDF (Fig. 8) and reports the
// share of predicted tickets arriving within two weeks.
func BenchmarkFig8(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.RunFig8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.At(1, 14), "cdf-14d")
		b.ReportMetric(res.At(1, 2), "missed-if-fixed-2d")
	}
}

// BenchmarkTable5 regenerates the outage/IVR analysis (Table 5).
func BenchmarkTable5(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.RunTable5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ExplainedByOutage[0], "explained-1wk")
		b.ReportMetric(res.ExplainedByOutage[3], "explained-4wk")
		b.ReportMetric(res.Coef[3], "logit-coef-4wk")
	}
}

// BenchmarkNotOnSite regenerates the §5.2 zero-traffic analysis.
func BenchmarkNotOnSite(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.RunNotOnSite()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fraction, "notonsite-frac")
	}
}

// BenchmarkLocator50 regenerates the §6.3 headline (tests to locate 50% of
// problems) and the Fig. 10 deep-bin improvement.
func BenchmarkLocator50(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.RunLocator()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MedianRank["basic"]), "median-basic")
		b.ReportMetric(float64(res.MedianRank["combined"]), "median-combined")
	}
}

// BenchmarkFig10 reports the deep-bin rank improvements of Fig. 10.
func BenchmarkFig10(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.RunLocator()
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.FlatImprovement) - 1
		b.ReportMetric(res.FlatImprovement[last], "flat-improve-deep")
		b.ReportMetric(res.CombImprovement[last], "combined-improve-deep")
	}
}

// BenchmarkTable1 regenerates the disposition-mix summary.
func BenchmarkTable1(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LocationShare["HN"], "HN-share")
	}
}

// BenchmarkTrend regenerates the weekly arrival pattern (§3.3).
func BenchmarkTrend(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.RunTrend()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ByWeekday[1])/float64(res.Total), "monday-share")
	}
}

// --- ablations ---------------------------------------------------------------

// BenchmarkAblationRounds sweeps the boosting budget (the paper settles on
// 800 by cross-validation) and reports accuracy at the operating budget.
func BenchmarkAblationRounds(b *testing.B) {
	ctx := benchContext(b)
	for _, rounds := range []int{20, 80, 250} {
		b.Run(benchName("rounds", rounds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultPredictorConfig(ctx.DS.NumLines, 17)
				cfg.Rounds = rounds
				cfg.MaxSelectExamples = 15000
				pred, err := core.TrainPredictor(ctx.DS, features.WeekRange(30, 38), cfg)
				if err != nil {
					b.Fatal(err)
				}
				acc, err := budgetAccuracy(ctx, pred, 43, cfg.BudgetN)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(acc, "acc@budget")
			}
		})
	}
}

// BenchmarkAblationSelection compares keeping everything against the
// selected compact feature set (the scalability-accuracy trade of §4.3).
func BenchmarkAblationSelection(b *testing.B) {
	ctx := benchContext(b)
	for _, topK := range []int{8, 40, 120} {
		b.Run(benchName("topk", topK), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultPredictorConfig(ctx.DS.NumLines, 17)
				cfg.Rounds = 80
				cfg.SelectTopK = topK
				cfg.MaxSelectExamples = 15000
				pred, err := core.TrainPredictor(ctx.DS, features.WeekRange(30, 38), cfg)
				if err != nil {
					b.Fatal(err)
				}
				acc, err := budgetAccuracy(ctx, pred, 43, cfg.BudgetN)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(acc, "acc@budget")
			}
		})
	}
}

// BenchmarkAblationDepth tests the paper's §4.4 argument for a linear model:
// with unreported problems mislabelled as negatives, deeper weak learners
// should gain little or lose. It trains stump boosting and depth-2 tree
// boosting on the same features and reports held-out budget accuracy.
func BenchmarkAblationDepth(b *testing.B) {
	ctx := benchContext(b)
	// Shared encoding: Table 3 history+customer features.
	trainEx := features.ExamplesForWeeks(ctx.DS, features.WeekRange(30, 38))
	enc, err := features.Encode(ctx.DS, ctx.Ix, trainEx, features.Config{})
	if err != nil {
		b.Fatal(err)
	}
	yTrain := features.Labels(ctx.Ix, trainEx, 28)
	q, err := ml.FitQuantizer(enc.Cols, 64)
	if err != nil {
		b.Fatal(err)
	}
	bmTrain, err := q.Transform(enc.Cols)
	if err != nil {
		b.Fatal(err)
	}
	testEx := features.ExamplesForWeeks(ctx.DS, []int{43})
	encT, err := features.Encode(ctx.DS, ctx.Ix, testEx, features.Config{})
	if err != nil {
		b.Fatal(err)
	}
	yTest := features.Labels(ctx.Ix, testEx, 28)
	bmTest, err := q.Transform(encT.Cols)
	if err != nil {
		b.Fatal(err)
	}
	budget := ctx.Cfg.BudgetN

	b.Run("depth=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := ml.TrainBStump(bmTrain, q, yTrain, ml.TrainOptions{Rounds: 80})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(ml.PrecisionAtK(m.ScoreAll(bmTest), yTest, budget), "acc@budget")
		}
	})
	b.Run("depth=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := ml.TrainBTree(bmTrain, q, yTrain, ml.TrainOptions{Rounds: 80})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(ml.PrecisionAtK(m.ScoreAll(bmTest), yTest, budget), "acc@budget")
		}
	})
}

func budgetAccuracy(ctx *eval.Context, pred *core.TicketPredictor, week, budget int) (float64, error) {
	ex := features.ExamplesForWeeks(ctx.DS, []int{week})
	scores, err := pred.ScoreExamples(ctx.DS, ex)
	if err != nil {
		return 0, err
	}
	y := features.Labels(ctx.Ix, ex, 28)
	return ml.PrecisionAtK(scores, y, budget), nil
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- core-path micro benchmarks ----------------------------------------------

// BenchmarkWeeklyRanking measures the production Saturday run: scoring and
// ranking the whole population with a trained model (the paper: under 15
// minutes for several million lines).
func BenchmarkWeeklyRanking(b *testing.B) {
	ctx := benchContext(b)
	pred, err := ctx.StandardPredictor()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.Rank(ctx.DS, 43); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctx.DS.NumLines), "lines")
}

// populateServeStore loads the recent test history plus the ticket record
// into a server's store — the state a weekly feed would leave behind.
func populateServeStore(b *testing.B, srv *serve.Server, ds *data.Dataset) {
	b.Helper()
	var tests []serve.TestRecord
	for w := 30; w <= 43; w++ {
		for l := 0; l < ds.NumLines; l++ {
			m := ds.At(data.LineID(l), w)
			tests = append(tests, serve.TestRecord{
				Line: m.Line, Week: w, Missing: m.Missing, F: m.F[:],
				Profile: ds.ProfileOf[l], DSLAM: ds.DSLAMOf[l], Usage: ds.UsageOf[l],
			})
		}
	}
	if _, err := srv.Store().IngestTests(tests); err != nil {
		b.Fatal(err)
	}
	var tickets []serve.TicketRecord
	for _, tk := range ds.Tickets {
		tickets = append(tickets, serve.TicketRecord{ID: tk.ID, Line: tk.Line, Day: tk.Day, Category: uint8(tk.Category)})
	}
	if _, err := srv.Store().IngestTickets(tickets); err != nil {
		b.Fatal(err)
	}
}

// sinkResponseWriter is a reusable ResponseWriter so the benchmark measures
// the handler, not httptest's per-request recorder allocations.
type sinkResponseWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *sinkResponseWriter) Header() http.Header { return w.h }
func (w *sinkResponseWriter) WriteHeader(c int)   { w.code = c }
func (w *sinkResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkServeScore measures the daemon's batch scoring endpoint — JSON
// in, resident score-table lookup, prerendered JSON out — scoring the whole
// population per request, driven straight through the server's handler (the
// HTTP client stack would otherwise dominate the per-op allocation count
// the steady-state contract bounds).
func BenchmarkServeScore(b *testing.B) {
	ctx := benchContext(b)
	pred, err := ctx.StandardPredictor()
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Predictor: pred})
	if err != nil {
		b.Fatal(err)
	}
	ds := ctx.DS
	populateServeStore(b, srv, ds)

	type ex struct {
		Line int `json:"line"`
		Week int `json:"week"`
	}
	examples := make([]ex, ds.NumLines)
	for l := range examples {
		examples[l] = ex{Line: l, Week: 43}
	}
	body, err := json.Marshal(map[string]any{"examples": examples})
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/score", rd)
	sink := &sinkResponseWriter{h: make(http.Header, 4)}
	handler := srv.Handler()
	post := func() {
		rd.Seek(0, io.SeekStart)
		sink.code, sink.n = 0, 0
		handler.ServeHTTP(sink, req)
		if sink.code != http.StatusOK {
			b.Fatalf("score: status %d", sink.code)
		}
	}
	post() // warm the snapshot and the week's score table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*ds.NumLines)/s, "lines/sec")
	}
}

// BenchmarkScoreAfterIngest measures the score-table layer under a live
// feed: with the week 35-43 tables resident, each op re-ingests 200 week-43
// records (a feed retry re-delivering the values the store holds) and then
// scores one line at each of the 9 weeks through the handler, so the op pays
// the delta snapshot plus whatever table work the ingest forces. rows/op
// counts the rows the compiled scorer ran; a full rebuild of every resident
// table would be 9 x lines.
func BenchmarkScoreAfterIngest(b *testing.B) {
	const firstWeek, lastWeek, batch = 35, 43, 200
	ctx := benchContext(b)
	pred, err := ctx.StandardPredictor()
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Predictor: pred})
	if err != nil {
		b.Fatal(err)
	}
	ds := ctx.DS
	populateServeStore(b, srv, ds)

	reqs := make([]*http.Request, 0, lastWeek-firstWeek+1)
	rds := make([]*bytes.Reader, 0, cap(reqs))
	for w := firstWeek; w <= lastWeek; w++ {
		rd := bytes.NewReader([]byte(fmt.Sprintf(`{"examples":[{"line":%d,"week":%d}]}`, (w*97)%ds.NumLines, w)))
		rds = append(rds, rd)
		reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/v1/score", rd))
	}
	sink := &sinkResponseWriter{h: make(http.Header, 4)}
	handler := srv.Handler()
	scoreAll := func() {
		for i, req := range reqs {
			rds[i].Seek(0, io.SeekStart)
			sink.code, sink.n = 0, 0
			handler.ServeHTTP(sink, req)
			if sink.code != http.StatusOK {
				b.Fatalf("score: status %d", sink.code)
			}
		}
	}
	scoreAll() // warm the snapshot and every resident week table

	perm := rng.Derive(17, 0xfeed).Perm(ds.NumLines)
	recs := make([]serve.TestRecord, batch)
	var rows atomic.Int64
	ml.SetScoreObserver(func(n int, _ time.Duration) { rows.Add(int64(n)) })
	defer ml.SetScoreObserver(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			l := perm[(i*batch+j)%len(perm)]
			m := ds.At(data.LineID(l), lastWeek)
			recs[j] = serve.TestRecord{
				Line: m.Line, Week: lastWeek, Missing: m.Missing, F: m.F[:],
				Profile: ds.ProfileOf[l], DSLAM: ds.DSLAMOf[l], Usage: ds.UsageOf[l],
			}
		}
		if _, err := srv.Store().IngestTests(recs); err != nil {
			b.Fatal(err)
		}
		scoreAll()
	}
	b.StopTimer()
	b.ReportMetric(float64(rows.Load())/float64(b.N), "rows/op")
}

// benchFleet builds an in-process fleet: n shard daemons behind a gateway,
// spliced together by fleet.HostTransport so the measurement covers the
// gateway's partition/scatter/splice work and the shards' handler paths but
// not the TCP stack. Each shard is fed the full history and keeps only its
// ring arc, exactly as `nevermindd -fleet.id` does.
func benchFleet(b *testing.B, n int) *fleet.Gateway {
	b.Helper()
	ctx := benchContext(b)
	pred, err := ctx.StandardPredictor()
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, n)
	specs := make([]fleet.ShardSpec, n)
	ht := fleet.HostTransport{}
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("shard-%d", i)
		specs[i] = fleet.ShardSpec{Name: names[i], URL: "http://" + names[i]}
	}
	ring, err := fleet.NewRing(names, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Config{Predictor: pred})
		if err != nil {
			b.Fatal(err)
		}
		if n > 1 {
			owns, err := ring.Owns(names[i])
			if err != nil {
				b.Fatal(err)
			}
			srv.Store().SetOwner(owns)
		}
		populateServeStore(b, srv, ctx.DS)
		ht[names[i]] = srv.Handler()
	}
	gw, err := fleet.NewGateway(fleet.Config{
		Shards:    specs,
		Retry:     serve.RetryConfig{MaxAttempts: 2},
		Transport: ht,
		Sleep:     func(time.Duration) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	return gw
}

// BenchmarkFleetScore measures whole-population batch scoring through the
// scatter-gather gateway at 1 and 2 in-process shards. At shards=1 the
// delta against BenchmarkServeScore is the gateway tax (parse, ring lookup
// per example, re-marshal, splice). At shards=2 each shard answers half the
// examples; on a multi-core host the shard legs run in parallel and the
// aggregate throughput climbs toward 2x, while on a single-core host (the
// committed BENCH_ml.json baseline) the legs serialize and the honest
// expectation is parity with shards=1, not a speedup — the bench then pins
// that the fan-out costs no more than the single-shard path.
func BenchmarkFleetScore(b *testing.B) {
	ctx := benchContext(b)
	type ex struct {
		Line int `json:"line"`
		Week int `json:"week"`
	}
	examples := make([]ex, ctx.DS.NumLines)
	for l := range examples {
		examples[l] = ex{Line: l, Week: 43}
	}
	body, err := json.Marshal(map[string]any{"examples": examples})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 2} {
		b.Run(benchName("shards", n), func(b *testing.B) {
			gw := benchFleet(b, n)
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/score", rd)
			sink := &sinkResponseWriter{h: make(http.Header, 4)}
			handler := gw.Handler()
			post := func() {
				rd.Seek(0, io.SeekStart)
				sink.code, sink.n = 0, 0
				handler.ServeHTTP(sink, req)
				if sink.code != http.StatusOK {
					b.Fatalf("score: status %d", sink.code)
				}
			}
			post() // warm the shard snapshots and week score tables
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(b.N*ctx.DS.NumLines)/s, "lines/sec")
			}
		})
	}
}

// BenchmarkFleetRank measures the fleet-wide top-N: health scatter, per-
// shard rank exports, streaming k-way merge, envelope splice. The merge
// touches only the shards' top-N heaps — never a full population — so the
// cost scales with n·shards, not lines.
func BenchmarkFleetRank(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(benchName("shards", n), func(b *testing.B) {
			gw := benchFleet(b, n)
			req := httptest.NewRequest(http.MethodGet, "/v1/rank?week=43&n=100", nil)
			sink := &sinkResponseWriter{h: make(http.Header, 4)}
			handler := gw.Handler()
			get := func() {
				sink.code, sink.n = 0, 0
				handler.ServeHTTP(sink, req)
				if sink.code != http.StatusOK {
					b.Fatalf("rank: status %d", sink.code)
				}
			}
			get() // warm the shard snapshots and rank tables
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
		})
	}
}

// benchSnapshotStore builds a store with lines of synthetic history over
// weeks 30..43 — the population-scaling fixture for the snapshot benches.
func benchSnapshotStore(b *testing.B, lines int) *serve.Store {
	b.Helper()
	s := serve.NewStore(8)
	recs := make([]serve.TestRecord, 0, lines)
	for w := 30; w <= 43; w++ {
		recs = recs[:0]
		for l := 0; l < lines; l++ {
			recs = append(recs, serve.TestRecord{
				Line: data.LineID(l), Week: w,
				F:     []float32{float32(l), float32(w)},
				DSLAM: int32(l % 50), Usage: 0.5,
			})
		}
		if _, err := s.IngestTests(recs); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkSnapshotFull measures the from-scratch snapshot rebuild across
// populations: O(lines x weeks) by construction.
func BenchmarkSnapshotFull(b *testing.B) {
	for _, lines := range []int{4000, 16000, 64000} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			s := benchSnapshotStore(b, lines)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ResetSnapshotCache()
				if s.Snapshot() == nil {
					b.Fatal("nil snapshot")
				}
			}
		})
	}
}

// BenchmarkSnapshotDelta measures the incremental path the steady state
// actually runs: ingest a small batch, apply its delta onto the cached
// snapshot. Time per op should stay flat as the population grows — the
// apply copies only the chunks the batch touched.
func BenchmarkSnapshotDelta(b *testing.B) {
	const batch = 200
	for _, lines := range []int{4000, 16000, 64000} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			s := benchSnapshotStore(b, lines)
			if s.Snapshot() == nil {
				b.Fatal("nil base snapshot")
			}
			recs := make([]serve.TestRecord, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range recs {
					l := (i*batch + j*31) % lines
					recs[j] = serve.TestRecord{
						Line: data.LineID(l), Week: 43,
						F:     []float32{float32(i), float32(j)},
						DSLAM: int32(l % 50), Usage: 0.5,
					}
				}
				if _, err := s.IngestTests(recs); err != nil {
					b.Fatal(err)
				}
				if s.Snapshot() == nil {
					b.Fatal("nil snapshot")
				}
			}
		})
	}
}

// BenchmarkMeasurement measures the physical-layer line-test model.
func BenchmarkMeasurement(b *testing.B) {
	net, err := dsl.Build(dsl.Config{NumLines: 100, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	eff := faults.Catalog[4].Effect.Scale(1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := &net.Lines[i%len(net.Lines)]
		_ = dsl.Measure(l, eff, false, i%data.Weeks, rng.Derive(9, uint64(i)))
	}
}

// --- worker-pool benchmarks --------------------------------------------------
//
// Each hot path runs at 1, 2 and 4 workers on identical inputs; outputs are
// bit-identical (see internal/ml worker tests), so these measure pure
// scheduling cost vs. parallel speedup. On a single-CPU host the multi-worker
// rows show only the goroutine overhead; speedups need GOMAXPROCS > 1.

var workerSweep = []int{1, 2, 4}

// benchTrainingMatrix encodes the standard history+customer features once.
func benchTrainingMatrix(b *testing.B) (*ml.BinnedMatrix, *ml.Quantizer, []ml.Column, []bool) {
	b.Helper()
	ctx := benchContext(b)
	trainEx := features.ExamplesForWeeks(ctx.DS, features.WeekRange(30, 38))
	enc, err := features.Encode(ctx.DS, ctx.Ix, trainEx, features.Config{})
	if err != nil {
		b.Fatal(err)
	}
	y := features.Labels(ctx.Ix, trainEx, 28)
	q, err := ml.FitQuantizer(enc.Cols, 64)
	if err != nil {
		b.Fatal(err)
	}
	bm, err := q.Transform(enc.Cols)
	if err != nil {
		b.Fatal(err)
	}
	return bm, q, enc.Cols, y
}

// BenchmarkTrainBStumpWorkers sweeps the stump-search worker pool (the
// feature axis of the Z-criterion scan).
func BenchmarkTrainBStumpWorkers(b *testing.B) {
	bm, q, _, y := benchTrainingMatrix(b)
	for _, w := range workerSweep {
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ml.TrainBStump(bm, q, y, ml.TrainOptions{Rounds: 40, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFeatureScoresWorkers sweeps the per-column selection pool.
func BenchmarkFeatureScoresWorkers(b *testing.B) {
	_, _, cols, y := benchTrainingMatrix(b)
	for _, w := range workerSweep {
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := ml.SelectOptions{N: 400, Seed: 17, MaxExamples: 15000, Workers: w}
				if _, err := ml.FeatureScores(cols, y, ml.CritTopNAP, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchScoringModel trains the shared scoring fixture once: a T=200
// ensemble on the standard matrix. Reference and compiled scoring benchmark
// against the same model and matrix, so their ratio is the leaf-table
// speedup the compiled path claims (see DESIGN.md, "Compiled inference").
var (
	scoreBenchOnce  sync.Once
	scoreBenchBM    *ml.BinnedMatrix
	scoreBenchModel *ml.BStump
	scoreBenchErr   error
)

func benchScoringModel(b *testing.B) (*ml.BinnedMatrix, *ml.BStump) {
	b.Helper()
	scoreBenchOnce.Do(func() {
		bm, q, _, y := benchTrainingMatrix(b)
		m, err := ml.TrainBStump(bm, q, y, ml.TrainOptions{Rounds: 200})
		if err != nil {
			scoreBenchErr = err
			return
		}
		scoreBenchBM, scoreBenchModel = bm, m
	})
	if scoreBenchErr != nil {
		b.Fatal(scoreBenchErr)
	}
	return scoreBenchBM, scoreBenchModel
}

// BenchmarkScoreAllWorkers sweeps the example-chunk scoring pool on the
// trained T=200 ensemble — the stump-major reference path, O(T) per example.
func BenchmarkScoreAllWorkers(b *testing.B) {
	bm, m := benchScoringModel(b)
	for _, w := range workerSweep {
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m.ScoreAllWorkers(bm, w)
			}
			b.ReportMetric(float64(len(m.Stumps)), "rounds")
		})
	}
}

// BenchmarkScoreCompiled scores the same model and matrix through the
// compiled per-bin tables — O(used features) per example, independent of T.
// The acceptance criterion is >= 3x over BenchmarkScoreAllWorkers at the
// matching worker count.
func BenchmarkScoreCompiled(b *testing.B) {
	bm, m := benchScoringModel(b)
	c := m.Compiled()
	for _, w := range workerSweep {
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = c.ScoreAllWorkers(bm, w)
			}
			b.ReportMetric(float64(len(m.Stumps)), "rounds")
			b.ReportMetric(float64(len(c.Features)), "used-features")
		})
	}
}

// BenchmarkCompileBStump measures the one-time fold cost the compiled path
// amortises (microseconds against milliseconds of scoring).
func BenchmarkCompileBStump(b *testing.B) {
	_, m := benchScoringModel(b)
	for i := 0; i < b.N; i++ {
		_ = ml.CompileBStump(m)
	}
}

// BenchmarkTransformWorkers sweeps the quantization pool.
func BenchmarkTransformWorkers(b *testing.B) {
	_, q, cols, _ := benchTrainingMatrix(b)
	for _, w := range workerSweep {
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.TransformWorkers(cols, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchIngestLoop drives the ingest hot path with 200-record batches — the
// shared body for the WAL-off/WAL-on pair, so the two numbers differ only by
// the durability sink.
func benchIngestLoop(b *testing.B, s *serve.Store) {
	const batch = 200
	recs := make([]serve.TestRecord, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			l := (i*batch + j*31) % 16000
			recs[j] = serve.TestRecord{
				Line: data.LineID(l), Week: 30 + i%14,
				F:     []float32{float32(i), float32(j)},
				DSLAM: int32(l % 50), Usage: 0.5,
			}
		}
		if _, err := s.IngestTests(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestWALOff is the control: the exact PR 7 ingest path, no
// durability attached.
func BenchmarkIngestWALOff(b *testing.B) {
	benchIngestLoop(b, serve.NewStore(8))
}

// BenchmarkIngestWALOn measures the write-ahead tax on the same loop: encode
// each batch and append it to the segment chain (OS-buffered writes; fsync
// runs off the critical path under the default interval policy, so it is
// excluded here just as it is excluded from an ack).
func BenchmarkIngestWALOn(b *testing.B) {
	s := serve.NewStore(8)
	d, err := serve.OpenDurability(s, nil, serve.DurabilityConfig{
		Dir: b.TempDir(), Sync: wal.SyncNever,
		CheckpointEvery: -1, NoFinalCheckpoint: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Abandon()
	benchIngestLoop(b, s)
}

// BenchmarkRecovery measures cold restart: checkpoint load plus WAL tail
// replay. The fixture is built once — 100 batches with a checkpoint cut at
// version 50, so every iteration loads the checkpoint and replays 50
// records; Abandon leaves the directory byte-identical for the next one.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	build := serve.NewStore(8)
	d, err := serve.OpenDurability(build, nil, serve.DurabilityConfig{
		Dir: dir, Sync: wal.SyncNever,
		CheckpointEvery: -1, NoFinalCheckpoint: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]serve.TestRecord, 200)
	for i := 0; i < 100; i++ {
		for j := range recs {
			l := (i*200 + j*31) % 16000
			recs[j] = serve.TestRecord{
				Line: data.LineID(l), Week: 30 + i%14,
				F:     []float32{float32(i), float32(j)},
				DSLAM: int32(l % 50), Usage: 0.5,
			}
		}
		if _, err := build.IngestTests(recs); err != nil {
			b.Fatal(err)
		}
		if i == 49 {
			d.Checkpoint()
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := serve.NewStore(8)
		d, err := serve.OpenDurability(s, nil, serve.DurabilityConfig{
			Dir: dir, Sync: wal.SyncNever,
			CheckpointEvery: -1, NoFinalCheckpoint: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if got := s.Version(); got != 100 {
			b.Fatalf("recovered to version %d, want 100", got)
		}
		d.Abandon()
	}
}

// BenchmarkReplicaCatchup measures a follower's full bootstrap over real
// HTTP: download the leader's checkpoint (version 50 of the same fixture
// BenchmarkRecovery replays), restore it, and stream-apply the 50-record WAL
// tail. The delta against BenchmarkRecovery is the wire tax — HTTP transfer
// plus the stream framing — since both end at the identical version-100
// store.
func BenchmarkReplicaCatchup(b *testing.B) {
	dir := b.TempDir()
	build := serve.NewStore(8)
	d, err := serve.OpenDurability(build, nil, serve.DurabilityConfig{
		Dir: dir, Sync: wal.SyncNever,
		CheckpointEvery: -1, NoFinalCheckpoint: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]serve.TestRecord, 200)
	for i := 0; i < 100; i++ {
		for j := range recs {
			l := (i*200 + j*31) % 16000
			recs[j] = serve.TestRecord{
				Line: data.LineID(l), Week: 30 + i%14,
				F:     []float32{float32(i), float32(j)},
				DSLAM: int32(l % 50), Usage: 0.5,
			}
		}
		if _, err := build.IngestTests(recs); err != nil {
			b.Fatal(err)
		}
		if i == 49 {
			d.Checkpoint()
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	src, err := replica.NewSource(replica.SourceConfig{
		Dir:         dir,
		LastVersion: func() uint64 { return 100 },
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(src.Handler())
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fol, err := replica.NewFollower(replica.FollowerConfig{
			Leader: ts.URL, ID: "bench", Shards: 8,
			SwapStore: func(*serve.Store) {},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := fol.Bootstrap(context.Background()); err != nil {
			b.Fatal(err)
		}
		if got := fol.Status().Applied; got != 100 {
			b.Fatalf("caught up to version %d, want 100", got)
		}
	}
}

// BenchmarkGatewayScoreReplicas measures whole-population batch scoring
// through a gateway whose single shard has a caught-up read replica: every
// score request routes to the replica, with the leader idle as fallback.
// The comparison against BenchmarkFleetScore/shards-1 pins the cost of the
// replica read path (health gating, round-robin pick, lag check) at ~zero.
func BenchmarkGatewayScoreReplicas(b *testing.B) {
	ctx := benchContext(b)
	pred, err := ctx.StandardPredictor()
	if err != nil {
		b.Fatal(err)
	}
	leader, err := serve.New(serve.Config{Predictor: pred})
	if err != nil {
		b.Fatal(err)
	}
	populateServeStore(b, leader, ctx.DS)
	repl, err := serve.New(serve.Config{
		Predictor: pred,
		ReadOnly:  true,
		ReplicaStatus: func() serve.ReplicaStatus {
			v := leader.Store().Version()
			return serve.ReplicaStatus{Applied: v, LeaderVersion: v, Connected: true}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	populateServeStore(b, repl, ctx.DS)
	ht := fleet.HostTransport{"shard-0": leader.Handler(), "shard-0-replica": repl.Handler()}
	gw, err := fleet.NewGateway(fleet.Config{
		Shards: []fleet.ShardSpec{{
			Name: "shard-0", URL: "http://shard-0",
			Replicas: []string{"http://shard-0-replica"},
		}},
		Retry:         serve.RetryConfig{MaxAttempts: 2},
		Transport:     ht,
		Sleep:         func(time.Duration) {},
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	gw.Start()
	defer gw.Stop()

	handler := gw.Handler()
	metrics := func() string {
		sink := httptest.NewRecorder()
		handler.ServeHTTP(sink, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return sink.Body.String()
	}
	// Replicas start pessimistic-down; wait for the prober to mark it up.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(metrics(), `fleet_replica_up{replica="shard-0-r0"} 1`) {
		if time.Now().After(deadline) {
			b.Fatal("prober never marked the replica up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	type ex struct {
		Line int `json:"line"`
		Week int `json:"week"`
	}
	examples := make([]ex, ctx.DS.NumLines)
	for l := range examples {
		examples[l] = ex{Line: l, Week: 43}
	}
	body, err := json.Marshal(map[string]any{"examples": examples})
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/score", rd)
	sink := &sinkResponseWriter{h: make(http.Header, 4)}
	post := func() {
		rd.Seek(0, io.SeekStart)
		sink.code, sink.n = 0, 0
		handler.ServeHTTP(sink, req)
		if sink.code != http.StatusOK {
			b.Fatalf("score: status %d", sink.code)
		}
	}
	post() // warm the replica's snapshot and week score tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*ctx.DS.NumLines)/s, "lines/sec")
	}
	// The bench is void if reads quietly fell back to the leader.
	if !strings.Contains(metrics(), `fleet_replica_reads_total{replica="shard-0-r0"}`) ||
		strings.Contains(metrics(), `fleet_replica_reads_total{replica="shard-0-r0"} 0`) {
		b.Fatal("score reads did not route to the replica")
	}
}

// BenchmarkDriftMonitors measures the drift loop's per-tick observation
// cost: a fresh controller folds the store's whole 14-week history — PSI
// against the frozen reference for every week past the baseline, champion
// AP@N + reliability gap for every matured week — exactly the work
// `ObserveWeek` adds to a pipeline tick. Thresholds are parked so the fold
// never retrains: the benchmark prices the monitors, not the trainer.
func BenchmarkDriftMonitors(b *testing.B) {
	ctx := benchContext(b)
	pred, err := ctx.StandardPredictor()
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Predictor: pred})
	if err != nil {
		b.Fatal(err)
	}
	populateServeStore(b, srv, ctx.DS)
	sn := srv.Store().Snapshot()

	th := drift.DefaultThresholds()
	th.PSICeil = 1000
	th.APFloor = 0.01
	th.K = data.Weeks // monitors may trip, the loop never retrains
	const lo, hi = 30, 43

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl, err := drift.New(drift.Config{Server: srv, Thresholds: th})
		if err != nil {
			b.Fatal(err)
		}
		ctrl.Rebuild(sn, lo, hi)
		if st := ctrl.Status(); st.Retrains != 0 {
			b.Fatalf("monitor benchmark retrained: %+v", st)
		}
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*(hi-lo+1))/s, "weeks/sec")
	}
}

// BenchmarkShadowScore measures one week of challenger shadow scoring —
// ScoreExamplesIx over every line of a matured week, off the serving
// score tables — the incremental cost a live challenger adds to each tick
// while it auditions. serve.New detaches the eval context's encode cache
// from the predictor, so every iteration encodes the week afresh, as the
// drift loop's cache-free challenger does.
func BenchmarkShadowScore(b *testing.B) {
	ctx := benchContext(b)
	pred, err := ctx.StandardPredictor()
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Predictor: pred})
	if err != nil {
		b.Fatal(err)
	}
	populateServeStore(b, srv, ctx.DS)
	sn := srv.Store().Snapshot()

	const week = 39 // matured by the store's week-43 horizon
	lines := sn.LinesAt(week)
	if len(lines) == 0 {
		b.Fatal("no lines at the shadow week")
	}
	examples := make([]features.Example, len(lines))
	for i, l := range lines {
		examples[i] = features.Example{Line: l, Week: week}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, err := pred.ScoreExamplesIx(sn.DS, sn.Ix, examples)
		if err != nil {
			b.Fatal(err)
		}
		if len(scores) != len(examples) {
			b.Fatalf("scored %d of %d examples", len(scores), len(examples))
		}
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*len(examples))/s, "lines/sec")
	}
}
