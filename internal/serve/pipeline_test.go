package serve

import (
	"context"
	"testing"

	"nevermind/internal/sim"
)

func TestPipelineRunsWeeks(t *testing.T) {
	ds, pred, _ := fixture(t)
	srv := newTestServer(t, Config{})
	src, err := sim.NewSource(ds, 40, 43)
	if err != nil {
		t.Fatal(err)
	}
	var reports []WeekReport
	pl, err := NewPipeline(srv, PipelineConfig{
		Source: SimFeed(src),
		OnWeek: func(r WeekReport) { reports = append(reports, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if len(reports) != 4 {
		t.Fatalf("pipeline ran %d weeks, want 4", len(reports))
	}
	for i, r := range reports {
		if r.Week != 40+i {
			t.Fatalf("report %d covers week %d", i, r.Week)
		}
		if r.IngestedTests != ds.NumLines {
			t.Fatalf("week %d ingested %d tests, want %d", r.Week, r.IngestedTests, ds.NumLines)
		}
		if r.Submitted != pred.Cfg.BudgetN {
			t.Fatalf("week %d submitted %d predictions, budget %d", r.Week, r.Submitted, pred.Cfg.BudgetN)
		}
	}
	// The first batch carries the full prior ticket history.
	if reports[0].IngestedTickets == 0 {
		t.Fatal("first week ingested no tickets")
	}
	if srv.Store().LatestWeek() != 43 {
		t.Fatalf("store latest week %d after the run", srv.Store().LatestWeek())
	}
	if srv.Store().NumLines() != ds.NumLines {
		t.Fatalf("store holds %d lines", srv.Store().NumLines())
	}

	// ATDS worked jobs: customer tickets always outrank predictions, and the
	// totals accumulate across weeks.
	tot := pl.Totals()
	if tot.Customer == 0 {
		t.Fatal("no customer jobs worked across four weeks")
	}
	if tot.Customer+tot.Predicted+tot.ExpiredPredicted == 0 {
		t.Fatal("pipeline produced no outcomes")
	}
	if srv.m.pipelineTicks.Value() != 4 || srv.m.pipelineWeek.Value() != 43 {
		t.Fatalf("pipeline metrics: ticks=%d week=%d",
			srv.m.pipelineTicks.Value(), srv.m.pipelineWeek.Value())
	}
	if srv.m.pipelineSubmitted.Value() != int64(4*pred.Cfg.BudgetN) {
		t.Fatalf("submitted metric %d", srv.m.pipelineSubmitted.Value())
	}

	// The source is exhausted: another step is a no-op.
	if ok, err := pl.Step(context.Background()); ok || err != nil {
		t.Fatalf("step on exhausted source: %v, %v", ok, err)
	}
}

func TestPipelineCancellation(t *testing.T) {
	ds, _, _ := fixture(t)
	srv := newTestServer(t, Config{})
	src, err := sim.NewSource(ds, 40, 51)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(srv, PipelineConfig{Source: SimFeed(src)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pl.Run(ctx); err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if src.Remaining() != 12 {
		t.Fatalf("cancelled run consumed the source: %d remaining", src.Remaining())
	}
}

func TestPipelineRequiresSource(t *testing.T) {
	srv := newTestServer(t, Config{})
	if _, err := NewPipeline(srv, PipelineConfig{}); err == nil {
		t.Fatal("pipeline built without a source")
	}
}
