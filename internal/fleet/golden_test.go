package fleet_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/fleet"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
)

// TestFleetGoldenEndToEndReplay replays the exact fixed-seed four-week run
// that internal/serve's golden pins — but drives every week through a
// 1-shard fleet: gateway in front, the daemon behind it, the fleet pipeline
// orchestrating. The output must match serve's e2e_replay.golden byte for
// byte, WITHOUT regenerating it: interposing the gateway and swapping the
// single-node pipeline for the fleet one may not move a single bit. The
// rank and locate sections are reconstructed from the gateway's HTTP
// responses (there is no store to reach into from out here), which also
// pins that the wire encoding round-trips float64s exactly.
func TestFleetGoldenEndToEndReplay(t *testing.T) {
	ds, _, loc := fixture(t)
	tf := newTestFleet(t, 1, nil, serve.RetryConfig{MaxAttempts: 2})

	src, err := sim.NewSource(ds, 40, 43)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	pl, err := fleet.NewPipeline(tf.gw, serve.PipelineConfig{
		Source: serve.SimFeed(src),
		Sleep:  func(time.Duration) {},
		OnWeek: func(r serve.WeekReport) {
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

	// The final ranking, reconstructed from the gateway's answers alone.
	var hv struct {
		LatestWeek int `json:"latest_week"`
	}
	h := do(t, tf.gw.Handler(), http.MethodGet, "/healthz", nil)
	if err := json.Unmarshal(h.body, &hv); err != nil {
		t.Fatal(err)
	}
	week := hv.LatestWeek
	r := do(t, tf.gw.Handler(), http.MethodGet, fmt.Sprintf("/v1/rank?week=%d&n=16", week), nil)
	if r.status != http.StatusOK {
		t.Fatalf("rank: %d %s", r.status, truncate(r.body))
	}
	var rv struct {
		Population  int `json:"population"`
		Predictions []struct {
			Line        data.LineID `json:"line"`
			Score       float64     `json:"score"`
			Probability float64     `json:"probability"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(r.body, &rv); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "rank week=%d population=%d\n", week, rv.Population)
	for i, p := range rv.Predictions {
		fmt.Fprintf(&b, "rank %2d line=%d score=%s prob=%s\n", i, p.Line, f64bits(p.Score), f64bits(p.Probability))
	}

	// Locator posterior for the top line, printed in model order: the wire
	// response sorts by probability, so invert that through disposition ids.
	top := rv.Predictions[0].Line
	lr := do(t, tf.gw.Handler(), http.MethodPost, "/v1/locate",
		[]byte(fmt.Sprintf(`{"line":%d,"week":%d,"model":"combined"}`, top, week)))
	if lr.status != http.StatusOK {
		t.Fatalf("locate: %d %s", lr.status, truncate(lr.body))
	}
	var lv struct {
		Dispositions []struct {
			ID          int     `json:"id"`
			Probability float64 `json:"probability"`
		} `json:"dispositions"`
	}
	if err := json.Unmarshal(lr.body, &lv); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]float64, len(lv.Dispositions))
	for _, d := range lv.Dispositions {
		byID[d.ID] = d.Probability
	}
	fmt.Fprintf(&b, "locate line=%d week=%d\n", top, week)
	for _, d := range loc.Dispositions {
		fmt.Fprintf(&b, "locate disp=%d posterior=%s\n", int(d), f64bits(byID[int(d)]))
	}

	want, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "e2e_replay.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("fleet replay diverged from serve's golden:\n%s", diffLines(string(want), got))
	}
}

// TestFleetPipelineTwoShards runs the same four-week pipeline over a 2-shard
// fleet and pins the orchestration invariants that hold regardless of shard
// count: every week's ingest totals equal the feed's, the freshness gate
// leaves no shard lagging, and the fleet-wide version equals the sum of per-
// shard ingest clocks.
func TestFleetPipelineTwoShards(t *testing.T) {
	ds, _, _ := fixture(t)
	tf := newTestFleet(t, 2, nil, serve.RetryConfig{MaxAttempts: 2})

	src, err := sim.NewSource(ds, 40, 43)
	if err != nil {
		t.Fatal(err)
	}
	weeks := 0
	pl, err := fleet.NewPipeline(tf.gw, serve.PipelineConfig{
		Source: serve.SimFeed(src),
		Sleep:  func(time.Duration) {},
		OnWeek: func(r serve.WeekReport) {
			weeks++
			if r.IngestedTests != ds.NumLines {
				t.Errorf("week %d ingested %d tests, want %d", r.Week, r.IngestedTests, ds.NumLines)
			}
			if r.Submitted == 0 {
				t.Errorf("week %d submitted nothing", r.Week)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if weeks != 4 {
		t.Fatalf("pipeline completed %d weeks, want 4", weeks)
	}
	tot := pl.Totals()
	if tot.Customer == 0 || tot.Predicted == 0 {
		t.Fatalf("degenerate totals: %+v", tot)
	}

	h := do(t, tf.gw.Handler(), http.MethodGet, "/healthz", nil)
	var hv struct {
		Status  string `json:"status"`
		Version uint64 `json:"version"`
		Shards  []struct {
			Up          bool   `json:"up"`
			Version     uint64 `json:"version"`
			SnapshotLag uint64 `json:"snapshot_lag"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(h.body, &hv); err != nil {
		t.Fatal(err)
	}
	if hv.Status != "ok" {
		t.Fatalf("fleet not healthy after run: %s", h.body)
	}
	var sum uint64
	for i, sh := range hv.Shards {
		if !sh.Up {
			t.Fatalf("shard %d down after run", i)
		}
		if sh.SnapshotLag != 0 {
			t.Fatalf("shard %d snapshot lag %d after freshness-gated run", i, sh.SnapshotLag)
		}
		sum += sh.Version
	}
	if hv.Version != sum {
		t.Fatalf("fleet version %d != shard sum %d", hv.Version, sum)
	}
}

// f64bits renders a float64 as value plus exact bit pattern, mirroring the
// golden's format from internal/serve.
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
