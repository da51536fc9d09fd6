package serve

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/features"
	"nevermind/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenEndToEndReplay replays a fixed-seed four-week pipeline run and
// compares the served outputs — per-week reports, the final top-N ranking
// with float64 score bits, and the locator posterior for the top line —
// against a golden file. Floats are rendered as exact IEEE-754 bit patterns,
// so the test pins bit-identical determinism across refactors: any change
// to ingest order, snapshot building, feature encoding, scoring, or ATDS
// dispatch that shifts a single bit shows up as a golden diff.
//
// Run with -update to accept an intentional behaviour change; the diff of
// testdata/e2e_replay.golden then documents the change in review.
func TestGoldenEndToEndReplay(t *testing.T) {
	ds, pred, loc := fixture(t)
	srv, err := New(Config{Predictor: pred, Locator: loc})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sim.NewSource(ds, 40, 43)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	pl, err := NewPipeline(srv, PipelineConfig{
		Source: SimFeed(src),
		Sleep:  func(time.Duration) {},
		OnWeek: func(r WeekReport) {
			fmt.Fprintf(&b, "week %d ingested_tests=%d ingested_tickets=%d submitted=%d pending=%d retries=%d\n",
				r.Week, r.IngestedTests, r.IngestedTickets, r.Submitted, r.Pending, r.Retries)
			fmt.Fprintf(&b, "week %d stats customer=%d predicted=%d expired=%d worked_within=%d cust_wait=%s pred_wait=%s\n",
				r.Week, r.Stats.Customer, r.Stats.Predicted, r.Stats.ExpiredPredicted,
				r.Stats.WorkedWithinBudgetHorizon,
				f64bits(r.Stats.MeanCustomerWaitDays), f64bits(r.Stats.MeanPredictedWaitDays))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(t.Context()); err != nil {
		t.Fatal(err)
	}

	// The final ranking, top 16, exactly as /v1/rank orders it.
	sn := srv.Store().Snapshot()
	if sn == nil {
		t.Fatal("empty store after the run")
	}
	week := srv.Store().LatestWeek()
	lines := sn.LinesAt(week)
	examples := make([]features.Example, len(lines))
	for i, l := range lines {
		examples[i] = features.Example{Line: l, Week: week}
	}
	preds, err := pred.PredictExamples(sn.DS, sn.Ix, examples)
	if err != nil {
		t.Fatal(err)
	}
	order := rankOrder(preds)
	top := 16
	if top > len(order) {
		top = len(order)
	}
	fmt.Fprintf(&b, "rank week=%d population=%d\n", week, len(lines))
	for r, i := range order[:top] {
		p := preds[i]
		fmt.Fprintf(&b, "rank %2d line=%d score=%s prob=%s\n", r, p.Line, f64bits(p.Score), f64bits(p.Probability))
	}

	// Locator posterior for the top-ranked line, dispositions in model order.
	post, err := loc.Posteriors(sn.DS, []core.DispatchCase{{Line: preds[order[0]].Line, Week: week}}, core.ModelCombined)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "locate line=%d week=%d\n", preds[order[0]].Line, week)
	for j, d := range loc.Dispositions {
		fmt.Fprintf(&b, "locate disp=%d posterior=%s\n", int(d), f64bits(post[0][j]))
	}

	got := b.String()
	goldenPath := filepath.Join("testdata", "e2e_replay.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/serve -run TestGoldenEndToEndReplay -update` to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("end-to-end replay diverged from golden:\n%s", diffLines(string(want), got))
	}
}

// rankOrder returns prediction indices best-first (score desc, line asc) —
// the same order /v1/rank serves.
func rankOrder(preds []core.Prediction) []int {
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := preds[order[a]], preds[order[b]]
		if pa.Score != pb.Score {
			return pa.Score > pb.Score
		}
		return pa.Line < pb.Line
	})
	return order
}

// f64bits renders a float64 as value plus exact bit pattern, so goldens
// catch 1-ulp drift a decimal rendering would round away.
func f64bits(v float64) string {
	return fmt.Sprintf("%g[%016x]", v, math.Float64bits(v))
}

// diffLines renders the first few diverging lines of two golden texts.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, lw, lg)
			if shown++; shown >= 8 {
				b.WriteString("  ... (more diffs elided)\n")
				break
			}
		}
	}
	return b.String()
}
