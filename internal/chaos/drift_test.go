package chaos

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/drift"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
	"nevermind/internal/wal"
)

// The drift chaos battery: the closed retraining loop under injected
// faults. Three adversaries, each of which must leave the loop on the exact
// trajectory of a clean replay:
//
//   - retrain failures (the trainer host dies) — the anchored training
//     window makes the eventual challenger identical, just later;
//   - reload-probe failures during promotion — the champion keeps serving
//     and the promotion retries until the probe passes;
//   - kill -9 mid-shadow — WAL recovery plus a controller rebuild must
//     neither lose nor double-count shadow weeks.

// driftChaosCfg parameterises one closed-loop run over the chaos fixture.
type driftChaosCfg struct {
	chaos    *Config
	lo, hi   int
	scenario sim.Scenario
	// killWhen, when set, abandons the run the first tick the predicate
	// holds and returns early with died=true.
	killWhen func(drift.Status) bool
	// durableDir, when set, arms the WAL on the server's store.
	durableDir string
}

// driftChaosRes captures a run's observables for replay comparison.
type driftChaosRes struct {
	status        drift.Status
	history       []drift.WeekStats
	modelIDs      []string
	challengerIDs []string // per-tick Status.ChallengerID
	stats         Stats
	died          bool
	lastWeek      int
	recoveredWeek int // store's latest week right after WAL recovery; -1 without durability
}

// driftThresholds is the chaos fixture's operating point: the PSI ceiling
// between clean jitter and the firmware shift, the AP floor out of the way
// (weekly AP at fixture scale is too noisy for a relative floor).
func driftThresholds() drift.Thresholds {
	th := drift.DefaultThresholds()
	th.PSICeil = 0.2
	th.APFloor = 0.01
	return th
}

func defaultDriftChaosCfg() driftChaosCfg {
	sc := sim.DefaultScenario(sim.ScenarioFirmware)
	sc.Week = 45
	return driftChaosCfg{lo: 40, hi: 51, scenario: sc}
}

// runDriftChaos drives server + pipeline + drift controller over the
// scenario feed with the chaos layer armed, stepping week by week.
func runDriftChaos(t *testing.T, cfg driftChaosCfg) driftChaosRes {
	t.Helper()
	ds, pred0 := fixture(t)

	dir := t.TempDir()
	predPath := filepath.Join(dir, "pred.gob.gz")
	if err := pred0.Save(predPath); err != nil {
		t.Fatal(err)
	}
	pred, err := core.LoadPredictor(predPath)
	if err != nil {
		t.Fatal(err)
	}

	var inj *Injector
	var faults *serve.FaultHooks
	var hooks *drift.FaultHooks
	if cfg.chaos != nil {
		c := *cfg.chaos
		c.Sleep = func(time.Duration) {}
		inj = New(c)
		faults = inj.Hooks()
		hooks = inj.DriftHooks()
	}
	srv, err := serve.New(serve.Config{Predictor: pred, Shards: 2, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}

	recoveredWeek := -1
	var dur *serve.Durability
	if cfg.durableDir != "" {
		dur, err = serve.OpenDurability(srv.Store(), nil, serve.DurabilityConfig{
			Dir:             cfg.durableDir,
			Sync:            wal.SyncNever,
			CheckpointEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		recoveredWeek = srv.Store().LatestWeek()
	}

	src, err := sim.NewSource(ds, cfg.lo, cfg.hi)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := sim.NewScenarioSource(src, cfg.scenario)
	if err != nil {
		t.Fatal(err)
	}
	var pfeed serve.Source = feed
	if inj != nil {
		pfeed = inj.WrapSource(pfeed)
	}

	ctrl, err := drift.New(drift.Config{
		Server:     srv,
		Thresholds: driftThresholds(),
		TrainWeeks: 8,
		Hooks:      hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	// If the recovered store already holds weeks (restart path), fold them
	// into the controller before the pipeline resumes — but stop one week
	// short of the recovered watermark: the WAL is append-ordered, so only
	// its newest week can be torn, and that week is re-delivered whole by
	// the resumed feed and observed then.
	if recoveredWeek > cfg.lo {
		ctrl.Rebuild(srv.Store().Snapshot(), cfg.lo, recoveredWeek-1)
	}

	pl, err := serve.NewPipeline(srv, serve.PipelineConfig{
		Source:     pfeed,
		Retry:      serve.RetryConfig{MaxAttempts: 10, Seed: 5},
		Sleep:      func(time.Duration) {},
		OnSnapshot: ctrl.ObserveWeek,
	})
	if err != nil {
		t.Fatal(err)
	}

	res := driftChaosRes{recoveredWeek: recoveredWeek}
	for {
		ok, err := pl.Step(t.Context())
		if err != nil {
			t.Fatalf("pipeline died: %v", err)
		}
		if !ok {
			break
		}
		res.modelIDs = append(res.modelIDs, srv.Models().ID)
		res.challengerIDs = append(res.challengerIDs, ctrl.Status().ChallengerID)
		if cfg.killWhen != nil && cfg.killWhen(ctrl.Status()) {
			res.died = true
			if dur != nil {
				dur.Abandon() // kill -9: no final sync
			}
			break
		}
	}
	if dur != nil && !res.died {
		if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
	}
	res.status = ctrl.Status()
	res.history = ctrl.History()
	res.lastWeek = srv.Store().LatestWeek()
	if inj != nil {
		res.stats = inj.Stats()
	}
	return res
}

// assertSameTrajectory compares the controller-visible outcome of two runs:
// identical week-by-week monitor history and identical final loop counters
// except the failure tallies the adversary is expected to add.
func assertSameTrajectory(t *testing.T, name string, clean, got driftChaosRes) {
	t.Helper()
	cs, gs := clean.status, got.status
	// The fault counters are the adversary's signature; zero them out
	// before requiring equality of everything else.
	gs.RetrainFailures = cs.RetrainFailures
	gs.PromoteFailures = cs.PromoteFailures
	if cs != gs {
		t.Fatalf("%s: status diverged:\n clean %+v\n chaos %+v", name, clean.status, got.status)
	}
	if !reflect.DeepEqual(clean.history, got.history) {
		for i := range clean.history {
			if i < len(got.history) && !reflect.DeepEqual(clean.history[i], got.history[i]) {
				t.Fatalf("%s: history diverged at week %d:\n clean %+v\n chaos %+v",
					name, clean.history[i].Week, clean.history[i], got.history[i])
			}
		}
		t.Fatalf("%s: history length diverged: %d vs %d", name, len(clean.history), len(got.history))
	}
}

// firstChallenger returns the first non-empty per-tick challenger ID.
func firstChallenger(ids []string) string {
	for _, id := range ids {
		if id != "" {
			return id
		}
	}
	return ""
}

// TestDriftRetrainFaultSoak: challenger training fails under injected
// faults. The training window is anchored at trip time, so when the retry
// finally lands it must produce the exact same challenger the clean run
// trained — only later. The whole faulted run must also replay
// bit-identically from its seed.
func TestDriftRetrainFaultSoak(t *testing.T) {
	clean := runDriftChaos(t, defaultDriftChaosCfg())
	if clean.status.Retrains != 2 || clean.status.Rejections != 1 {
		t.Fatalf("clean trajectory moved off its pin: %+v", clean.status)
	}

	cfg := defaultDriftChaosCfg()
	cfg.chaos = &Config{Seed: 77, RetrainError: 0.8, MaxConsecutive: 2}
	got := runDriftChaos(t, cfg)

	if got.stats.RetrainFaults == 0 {
		t.Fatal("retrain fault site never fired")
	}
	if int64(got.status.RetrainFailures) != got.stats.RetrainFaults {
		t.Fatalf("controller counted %d retrain failures, injector %d",
			got.status.RetrainFailures, got.stats.RetrainFaults)
	}
	// Anchored retraining: the first challenger that finally trains is the
	// same one the clean run trained — the fault changed when, never what.
	cleanFirst, gotFirst := firstChallenger(clean.challengerIDs), firstChallenger(got.challengerIDs)
	if cleanFirst == "" || gotFirst != cleanFirst {
		t.Fatalf("first challenger diverged: clean %q, faulted %q", cleanFirst, gotFirst)
	}
	if got.status.Retrains == 0 {
		t.Fatalf("faulted run never completed a retrain: %+v", got.status)
	}
	// The model served never changed in either run on this horizon.
	for i, id := range got.modelIDs {
		if id != "boot" {
			t.Fatalf("tick %d served %s on a no-promotion horizon", i, id)
		}
	}

	again := runDriftChaos(t, cfg)
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("faulted run is not replay-deterministic:\n %+v\n %+v", got.status, again.status)
	}
}

// TestDriftPromoteReloadFaultSoak: the reload probe fails while a won
// challenger is being promoted. The champion must keep serving, the
// controller must count the failure and retry on the next tick, and the
// challenger that finally lands must be the same one.
func TestDriftPromoteReloadFaultSoak(t *testing.T) {
	cfg := defaultDriftChaosCfg()
	cfg.lo, cfg.scenario.Week = 36, 41
	clean := runDriftChaos(t, cfg)
	if clean.status.Promotions != 1 || clean.status.ModelID != "challenger-2-w43" {
		t.Fatalf("clean trajectory moved off its pin: %+v", clean.status)
	}
	promoteTick := -1
	for i, id := range clean.modelIDs {
		if id != "boot" {
			promoteTick = i
			break
		}
	}

	faulted := cfg
	faulted.chaos = &Config{Seed: 9, ReloadError: 0.9, MaxConsecutive: 1}
	got := runDriftChaos(t, faulted)

	if got.stats.ReloadFaults == 0 {
		t.Fatal("reload fault site never fired")
	}
	if got.status.PromoteFailures == 0 {
		t.Fatalf("no promotion attempt failed under reload faults: %+v", got.status)
	}
	if got.status.Promotions != 1 || got.status.ModelID != clean.status.ModelID {
		t.Fatalf("promotion did not land despite retries: %+v", got.status)
	}
	// The failed probe never half-promoted: the champion served every tick
	// until the retried promotion landed, strictly after the clean run's.
	gotPromote := -1
	for i, id := range got.modelIDs {
		if id != "boot" {
			gotPromote = i
			break
		}
		if i <= promoteTick && got.modelIDs[i] != "boot" {
			t.Fatalf("tick %d: unexpected model %s", i, id)
		}
	}
	if gotPromote <= promoteTick {
		t.Fatalf("faulted promotion landed at tick %d, not after clean tick %d", gotPromote, promoteTick)
	}

	again := runDriftChaos(t, faulted)
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("faulted run is not replay-deterministic:\n %+v\n %+v", got.status, again.status)
	}
}

// TestDriftKillMidShadowRestart: kill -9 while the challenger is two weeks
// into its shadow window, recover the store from the WAL, rebuild the
// controller from the recovered snapshot and resume the feed. The restarted
// loop must converge to the exact trajectory of a never-crashed run —
// shadow weeks neither lost nor double-counted, same promotion, same
// rollback, same final champion.
func TestDriftKillMidShadowRestart(t *testing.T) {
	cfg := defaultDriftChaosCfg()
	cfg.lo, cfg.scenario.Week = 33, 38
	clean := runDriftChaos(t, cfg)
	if clean.status.Promotions != 2 || clean.status.Rollbacks != 1 {
		t.Fatalf("clean trajectory moved off its pin: %+v", clean.status)
	}

	dir := t.TempDir()
	killed := cfg
	killed.durableDir = dir
	killed.killWhen = func(st drift.Status) bool {
		return st.State == "shadowing" && st.ShadowWeeks == 2
	}
	dead := runDriftChaos(t, killed)
	if !dead.died {
		t.Fatal("kill predicate never fired; the run completed")
	}
	if dead.status.ShadowWeeks != 2 || dead.status.Retrains != 1 {
		t.Fatalf("killed mid-shadow in the wrong state: %+v", dead.status)
	}

	resumed := cfg
	resumed.durableDir = dir
	got := runDriftChaos(t, resumed)
	if got.recoveredWeek < cfg.lo {
		t.Fatalf("WAL recovery restored nothing (latest week %d)", got.recoveredWeek)
	}

	assertSameTrajectory(t, "kill-mid-shadow", clean, got)
	if got.status.ModelID != clean.status.ModelID {
		t.Fatalf("restarted run serves %s, clean run %s", got.status.ModelID, clean.status.ModelID)
	}
	var cleanShadow, gotShadow int
	for i := range clean.history {
		if clean.history[i].Shadowed {
			cleanShadow++
		}
		if got.history[i].Shadowed {
			gotShadow++
		}
	}
	if cleanShadow == 0 || gotShadow != cleanShadow {
		t.Fatalf("shadow weeks lost or double-counted: clean %d, restarted %d", cleanShadow, gotShadow)
	}
}
