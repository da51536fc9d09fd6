package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nevermind/internal/core"
)

// Small stand-ins for the benchmark's populations keep the test fast; the
// generators are the ones a run uses.
const (
	testLines  = 3000
	testRounds = 10
)

// streamsFor builds the desk_feed and tick streams for a seed and hashes
// them together.
func streamsFor(t *testing.T, seed uint64) [32]byte {
	t.Helper()
	ds, err := simulate(testLines, seed)
	if err != nil {
		t.Fatal(err)
	}
	desk, err := deskStream(ds, seed, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	tick, err := tickStream(ds)
	if err != nil {
		t.Fatal(err)
	}
	all := &stream{preload: append(desk.preload, tick.preload...), warm: desk.warm,
		timed: desk.timed, weeks: tick.weeks, probes: desk.probes}
	return all.digest()
}

// modelDigests trains a seed's models and hashes them. gob writes maps in
// random order, so two encodings of one model differ byte for byte; the
// hash is over each file's decoded model re-encoded as JSON, which sorts map
// keys and covers every field the file carries.
func modelDigests(t *testing.T, seed uint64) [2][32]byte {
	t.Helper()
	dir := t.TempDir()
	if err := trainModels(dir, seed, testLines, testRounds); err != nil {
		t.Fatal(err)
	}
	pred, err := core.LoadPredictor(filepath.Join(dir, "predictor.gob.gz"))
	if err != nil {
		t.Fatal(err)
	}
	loc, err := core.LoadLocator(filepath.Join(dir, "locator.gob.gz"))
	if err != nil {
		t.Fatal(err)
	}
	var out [2][32]byte
	for i, m := range []any{pred, loc} {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sha256.Sum256(b)
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	a, b := streamsFor(t, 7), streamsFor(t, 7)
	if a != b {
		t.Fatalf("seed 7 produced two different request streams: %x vs %x", a, b)
	}
	if c := streamsFor(t, 8); c == a {
		t.Fatalf("seeds 7 and 8 produced the same request stream %x", a)
	}
	ma, mb := modelDigests(t, 7), modelDigests(t, 7)
	if ma != mb {
		t.Fatalf("seed 7 produced different model files: %x vs %x", ma, mb)
	}
}

// TestOpenLoopSchedule pins the desk schedule: reads at deskRate, desk_feed
// writes every feedEvery, due times ascending.
func TestOpenLoopSchedule(t *testing.T) {
	ds, err := simulate(testLines, 3)
	if err != nil {
		t.Fatal(err)
	}
	const seconds = 12
	st, err := deskStream(ds, 3, seconds, true)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i, r := range st.timed {
		counts[r.class]++
		if r.lookup {
			counts["lookup"]++
		}
		if i > 0 && r.due < st.timed[i-1].due {
			t.Fatalf("request %d due %v before its predecessor %v", i, r.due, st.timed[i-1].due)
		}
	}
	reads := counts["score"] + counts["rank"] + counts["locate"]
	if reads != deskRate*seconds {
		t.Errorf("%d reads, want %d", reads, deskRate*seconds)
	}
	// One write mid-way through each whole or part feed period: 2.5 s, 7.5 s.
	if want := 2; counts["ingest"] != want {
		t.Errorf("%d ingests, want %d", counts["ingest"], want)
	}
	// 60% one-line + 20% DSLAM scores, 10% ranks, 10% locates, within noise.
	if f := float64(counts["score"]) / float64(reads); f < 0.75 || f > 0.85 {
		t.Errorf("score share %.3f, want about 0.8", f)
	}
	// The one-line lookups behind the gated p50_ms.
	if f := float64(counts["lookup"]) / float64(reads); f < 0.55 || f > 0.65 {
		t.Errorf("lookup share %.3f, want about 0.6", f)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
