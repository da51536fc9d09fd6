package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/features"
)

// oracleScores scores examples through exported API only, the binned path
// the encode plan must reproduce: features.Encode, the predictor's selected
// columns and products, its quantizer, then the per-bin tables.
func oracleScores(t *testing.T, pred *core.TicketPredictor, sn *Snapshot, examples []features.Example) []float64 {
	t.Helper()
	enc, err := features.Encode(sn.DS, sn.Ix, examples, features.Config{
		HistoryWeeks: pred.Cfg.HistoryWeeks, Quadratic: pred.Cfg.UseDerived,
	})
	if err != nil {
		t.Fatal(err)
	}
	var keep []int
	for _, name := range pred.SelectedCols {
		keep = append(keep, enc.ColumnIndex(name))
	}
	final, err := enc.Subset(keep)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []features.Pair
	for _, pp := range pred.ProductPairs {
		pairs = append(pairs, features.Pair{A: enc.ColumnIndex(pp[0]), B: enc.ColumnIndex(pp[1])})
	}
	prods, err := features.ProductColumns(enc, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if err := final.AppendColumns(prods, features.GroupProd); err != nil {
		t.Fatal(err)
	}
	bm, err := pred.Quant.Transform(final.Cols)
	if err != nil {
		t.Fatal(err)
	}
	return pred.Model.Compiled().ScoreAllWorkers(bm, 1)
}

// servedScores posts the examples to /v1/score and returns the scores and
// probabilities of the answer, in request order.
func servedScores(t *testing.T, h http.Handler, examples []features.Example) (scores, probs []float64) {
	t.Helper()
	type ex struct {
		Line data.LineID `json:"line"`
		Week int         `json:"week"`
	}
	req := struct {
		Examples []ex `json:"examples"`
	}{}
	for _, e := range examples {
		req.Examples = append(req.Examples, ex{e.Line, e.Week})
	}
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("score: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Predictions []struct {
			Line        data.LineID `json:"line"`
			Week        int         `json:"week"`
			Score       float64     `json:"score"`
			Probability float64     `json:"probability"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Predictions) != len(examples) {
		t.Fatalf("score: %d predictions for %d examples", len(resp.Predictions), len(examples))
	}
	for i, p := range resp.Predictions {
		if p.Line != examples[i].Line || p.Week != examples[i].Week {
			t.Fatalf("prediction %d is (%d,%d), asked (%d,%d)", i, p.Line, p.Week, examples[i].Line, examples[i].Week)
		}
		scores = append(scores, p.Score)
		probs = append(probs, p.Probability)
	}
	return scores, probs
}

// checkServedAgainstOracle asserts /v1/score answers the examples with the
// oracle's scores and their calibrated probabilities, bit for bit.
func checkServedAgainstOracle(t *testing.T, tag string, srv *Server, examples []features.Example) {
	t.Helper()
	pred := srv.Models().Pred
	sn := srv.Store().Snapshot()
	want := oracleScores(t, pred, sn, examples)
	got, probs := servedScores(t, srv.Handler(), examples)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
			math.Float64bits(probs[i]) != math.Float64bits(pred.Model.Probability(want[i])) {
			t.Fatalf("%s: example %+v served %v/%v, oracle %v/%v", tag, examples[i],
				got[i], probs[i], want[i], pred.Model.Probability(want[i]))
		}
	}
}

// checkLocateAgainstBinned asserts /v1/locate, which encodes with the
// snapshot's cached week fallback, answers every locator model with exactly
// the posteriors PosteriorsIx computes with its own.
func checkLocateAgainstBinned(t *testing.T, tag string, srv *Server, line data.LineID, week int) {
	t.Helper()
	sn := srv.Store().Snapshot()
	loc := srv.Models().Loc
	for _, model := range []core.LocatorModel{core.ModelBasic, core.ModelFlat, core.ModelCombined} {
		want, err := loc.PosteriorsIx(sn.DS, sn.Ix, []core.DispatchCase{{Line: line, Week: week}}, model)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"line":%d,"week":%d,"model":%q}`, line, week, model)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locate", bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: locate: %d %s", tag, rec.Code, rec.Body)
		}
		var resp struct {
			Dispositions []struct {
				ID          int     `json:"id"`
				Probability float64 `json:"probability"`
			} `json:"dispositions"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		got := map[int]float64{}
		for _, d := range resp.Dispositions {
			got[d.ID] = d.Probability
		}
		for j, d := range loc.Dispositions {
			if math.Float64bits(got[int(d)]) != math.Float64bits(want[0][j]) {
				t.Fatalf("%s: %v locate (%d,%d) disposition %d: served %v, PosteriorsIx %v",
					tag, model, line, week, d, got[int(d)], want[0][j])
			}
		}
	}
}

// TestServedScoresMatchBinnedOracle drives the encode plan end to end
// through the /v1/score handler, against an oracle built from exported API
// only, over the cases where imputation and history statistics branch:
// dark lines (a whole window of Missing cells, or no record at all, so they
// impute from the week's fallback), week 0 (no previous week), weeks with
// fewer than 3 history records (ts columns stay 0), mixed-week requests
// (whose fallback is the mean over the request's weeks), and snapshots
// that inherited a week's fallback from their base.
func TestServedScoresMatchBinnedOracle(t *testing.T) {
	ds, _, _ := fixture(t)
	srv := newTestServer(t, Config{})
	st := srv.Store()

	// Lines 3 and 10 only ever report Missing; line 7 never reports.
	dark := map[data.LineID]bool{3: true, 10: true}
	var tests []TestRecord
	for _, span := range [][2]int{{0, 1}, {30, 43}} {
		recs, _ := recordsFor(ds, span[0], span[1])
		for _, r := range recs {
			switch {
			case r.Line == 7:
				continue
			case dark[r.Line]:
				r.Missing, r.F = true, nil
			}
			tests = append(tests, r)
		}
	}
	if _, err := st.IngestTests(tests); err != nil {
		t.Fatal(err)
	}
	_, tickets := recordsFor(ds, 30, 40)
	if _, err := st.IngestTickets(tickets); err != nil {
		t.Fatal(err)
	}

	probe := []data.LineID{0, 3, 7, 10, 11, 500, data.LineID(ds.NumLines - 1)}
	weeks := []int{0, 1, 30, 31, 32, 40, 43}
	singleWeek := func(tag string) {
		t.Helper()
		for _, w := range weeks {
			all := make([]features.Example, ds.NumLines)
			for l := range all {
				all[l] = features.Example{Line: data.LineID(l), Week: w}
			}
			checkServedAgainstOracle(t, fmt.Sprintf("%s week %d", tag, w), srv, all)
		}
	}
	singleWeek("first snapshot")
	var mixed []features.Example
	for i, l := range probe {
		for j := range weeks {
			mixed = append(mixed, features.Example{Line: l, Week: weeks[(i+j)%len(weeks)]})
		}
	}
	checkServedAgainstOracle(t, "mixed weeks", srv, mixed)
	for _, l := range probe {
		checkLocateAgainstBinned(t, "first snapshot", srv, l, 43)
	}
	checkLocateAgainstBinned(t, "first snapshot", srv, 3, 0)

	// A ticket-only publish writes no cell: every week inherits its
	// fallback. Then a week-43 write inherits every other week's.
	base := st.Snapshot()
	_, later := recordsFor(ds, 41, 43)
	if _, err := st.IngestTickets(later); err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	if sn == base {
		t.Fatal("ticket ingest published no new snapshot")
	}
	for _, w := range weeks {
		if sn.fallbacks[w] != base.fallbacks[w] {
			t.Fatalf("ticket-only publish did not inherit week %d's fallback", w)
		}
	}
	singleWeek("after tickets")
	var moved []TestRecord
	for _, l := range []data.LineID{3, 11, 12} {
		r := currentRecord(sn, l, 43)
		r.Missing = false
		r.F = append([]float32(nil), ds.At(0, 43).F[:]...)
		r.F[data.FDnBR] += 100
		moved = append(moved, r)
	}
	if _, err := st.IngestTests(moved); err != nil {
		t.Fatal(err)
	}
	singleWeek("after a week-43 write")
	checkServedAgainstOracle(t, "mixed weeks after a week-43 write", srv, mixed)
	for _, l := range probe {
		checkLocateAgainstBinned(t, "after a week-43 write", srv, l, 40)
	}
}

// TestSnapshotWeekFallbackOnce pins the snapshot's fallback cache: a week's
// fallback is computed at most once per snapshot (repeated reads return the
// same vector), equals features.WeekFallback bit for bit, is shared with
// the base by a publish that wrote no week-w cell — even when neither had
// computed it yet — and is recomputed for the weeks a publish wrote.
func TestSnapshotWeekFallbackOnce(t *testing.T) {
	ds, _, _ := fixture(t)
	st := NewStore(4)
	tests, _ := recordsFor(ds, 30, 40)
	if _, err := st.IngestTests(tests); err != nil {
		t.Fatal(err)
	}
	base := st.Snapshot()
	first := base.weekFallback(38)
	if again := base.weekFallback(38); &again[0] != &first[0] {
		t.Fatal("second read of week 38's fallback recomputed it")
	}
	if !sameBits(first, features.WeekFallback(base.DS, 38)) {
		t.Fatal("cached fallback differs from features.WeekFallback")
	}

	r := currentRecord(base, 5, 40)
	r.F[data.FUpBR] += 50
	if _, err := st.IngestTests([]TestRecord{r}); err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	if got := sn.weekFallback(38); &got[0] != &first[0] {
		t.Fatal("a publish that wrote no week-38 cell did not share the base's week-38 fallback")
	}
	lazy := sn.weekFallback(39) // neither snapshot had computed week 39
	if got := base.weekFallback(39); &got[0] != &lazy[0] {
		t.Fatal("week 39's fallback was computed twice across snapshots that agree on it")
	}
	if sn.fallbacks[40] == base.fallbacks[40] {
		t.Fatal("a publish that wrote a week-40 cell kept the base's week-40 fallback")
	}
	if got := sn.weekFallback(40); sameBits(got, base.weekFallback(40)) || !sameBits(got, features.WeekFallback(sn.DS, 40)) {
		t.Fatal("week 40's fallback did not follow the write")
	}

	st.ResetSnapshotCache()
	fresh := st.Snapshot()
	if fresh.fallbacks[38] == sn.fallbacks[38] {
		t.Fatal("a publish with no base shared a fallback slot")
	}
	if !sameBits(fresh.weekFallback(38), first) {
		t.Fatal("base-less publish computed a different week-38 fallback")
	}
}
