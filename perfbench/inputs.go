package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/features"
	"nevermind/internal/rng"
	"nevermind/internal/sim"
)

// Everything a run sends is derived from its seed: the simulated year, the
// predictor and locator files, and every request body. The daemons receive
// only these inputs (plus the population size and seed they simulate their
// own copy of the dataset from).
const (
	// Models are trained on a separate, smaller simulated population of the
	// same seed: training cost is the benchmark's own work, not the
	// system's, and the served populations only need a matching schema.
	trainLines  = 6000
	trainRounds = 120 // nevermindd's -rounds default

	preloadFrom = 30 // weeks 30-43 are ingested during set-up
	preloadTo   = 43
	tickFrom    = 44 // tick runs the Saturday loop over weeks 44-51
	tickTo      = 51

	// batchRecords is the fixed ingest batch size of the preload and the
	// weekly tick.
	batchRecords = 2048

	modelsVersion = "v2" // bump when the training recipe changes
)

// modelPaths names a seed's predictor and locator files.
type modelPaths struct{ pred, loc string }

// ensureModels trains the seed's models, or reuses the files an earlier run
// with the same seed left under dir. Files are written to a temporary
// directory and renamed into place, so an interrupted run leaves nothing
// half-written behind.
func ensureModels(dir string, seed uint64) (modelPaths, error) {
	final := filepath.Join(dir, fmt.Sprintf("models-%s-seed%d", modelsVersion, seed))
	mp := modelPaths{pred: filepath.Join(final, "predictor.gob.gz"), loc: filepath.Join(final, "locator.gob.gz")}
	if _, err := os.Stat(mp.loc); err == nil {
		return mp, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return mp, err
	}
	tmp, err := os.MkdirTemp(dir, "models-tmp-")
	if err != nil {
		return mp, err
	}
	defer os.RemoveAll(tmp)
	if err := trainModels(tmp, seed, trainLines, trainRounds); err != nil {
		return mp, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return mp, fmt.Errorf("install models: %w", err)
	}
	return mp, nil
}

// trainModels writes predictor.gob.gz and locator.gob.gz for seed into dir,
// trained on a simulated population of lines with the recipe nevermindd
// uses at start-up for a pipeline starting at preloadFrom.
func trainModels(dir string, seed uint64, lines, rounds int) error {
	res, err := sim.Run(sim.DefaultConfig(lines, seed))
	if err != nil {
		return fmt.Errorf("simulate training population: %w", err)
	}
	ds := res.Dataset
	cfg := core.DefaultPredictorConfig(ds.NumLines, seed)
	cfg.Rounds = rounds
	pred, err := core.TrainPredictor(ds, features.WeekRange(preloadFrom-13, preloadFrom-5), cfg)
	if err != nil {
		return fmt.Errorf("train predictor: %w", err)
	}
	if err := pred.Save(filepath.Join(dir, "predictor.gob.gz")); err != nil {
		return err
	}
	cases := core.CasesFromNotes(ds, data.FirstSaturday, data.SaturdayOf(preloadFrom)-1)
	loc, err := core.TrainLocator(ds, cases, core.DefaultLocatorConfig(seed))
	if err != nil {
		return fmt.Errorf("train locator: %w", err)
	}
	return loc.Save(filepath.Join(dir, "locator.gob.gz"))
}

// request is one pre-encoded HTTP request of a run.
type request struct {
	class  string // "score", "rank", "locate" or "ingest"
	lookup bool   // a one-line score: the desk's single-line lookup
	path   string // with query, for rank
	body   []byte // nil for GET
	due    time.Duration
}

func (r *request) method() string {
	if r.body == nil {
		return "GET"
	}
	return "POST"
}

// Read classes and ingest, in report order.
var classes = []string{"score", "rank", "locate", "ingest"}

// stream is every request one run sends, encoded before any timing starts.
type stream struct {
	preload [][]byte   // ingest bodies for weeks preloadFrom..preloadTo, in order
	warm    []request  // set-up warm-up: makes every score table resident
	timed   []request  // desk, desk_feed: the open-loop schedule
	weeks   [][][]byte // tick: ingest batches for each week tickFrom..tickTo
	probes  []request  // correctness gate: compared against the reference
}

// simulate builds the served population's year for a seed.
func simulate(lines int, seed uint64) (*data.Dataset, error) {
	res, err := sim.Run(sim.DefaultConfig(lines, seed))
	if err != nil {
		return nil, fmt.Errorf("simulate %d lines: %w", lines, err)
	}
	return res.Dataset, nil
}

// weekBatches encodes weeks lo..hi of ds as fixed-size ingest batches, one
// slice of bodies per week; each week's tickets ride in its last batch.
// size <= 0 puts a whole week in one body.
func weekBatches(ds *data.Dataset, lo, hi, size int) ([][][]byte, error) {
	src, err := sim.NewSource(ds, lo, hi)
	if err != nil {
		return nil, err
	}
	var out [][][]byte
	for {
		b, ok := src.Next()
		if !ok {
			return out, nil
		}
		n := len(b.Tests)
		step := size
		if step <= 0 || step > n {
			step = n
		}
		var week [][]byte
		for i := 0; i < n; i += step {
			j := min(i+step, n)
			var tickets []data.Ticket
			if j == n {
				tickets = b.Tickets
			}
			body, err := appendIngest(nil, b.Tests[i:j], tickets)
			if err != nil {
				return nil, err
			}
			week = append(week, body)
		}
		out = append(out, week)
	}
}

// appendIngest encodes one /v1/ingest body. The encoding is what
// encoding/json would decode to the same records (float32 values in
// shortest round-trip form); hand-rolled because encoding a year of tests
// through reflection costs seconds per run.
func appendIngest(b []byte, tests []sim.LineTest, tickets []data.Ticket) ([]byte, error) {
	b = append(b, `{"tests":[`...)
	for i := range tests {
		t := &tests[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"line":`...)
		b = strconv.AppendInt(b, int64(t.M.Line), 10)
		b = append(b, `,"week":`...)
		b = strconv.AppendInt(b, int64(t.M.Week), 10)
		if t.M.Missing {
			b = append(b, `,"missing":true`...)
		}
		b = append(b, `,"f":[`...)
		for k, f := range t.M.F {
			if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
				return nil, fmt.Errorf("line %d week %d: non-finite feature %d", t.M.Line, t.M.Week, k)
			}
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(f), 'g', -1, 32)
		}
		b = append(b, `],"profile":`...)
		b = strconv.AppendUint(b, uint64(t.Profile), 10)
		b = append(b, `,"dslam":`...)
		b = strconv.AppendInt(b, int64(t.DSLAM), 10)
		b = append(b, `,"usage":`...)
		b = strconv.AppendFloat(b, float64(t.Usage), 'g', -1, 32)
		b = append(b, '}')
	}
	b = append(b, `],"tickets":[`...)
	for i, t := range tickets {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(t.ID), 10)
		b = append(b, `,"line":`...)
		b = strconv.AppendInt(b, int64(t.Line), 10)
		b = append(b, `,"day":`...)
		b = strconv.AppendInt(b, int64(t.Day), 10)
		b = append(b, `,"category":`...)
		b = strconv.AppendUint(b, uint64(t.Category), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// readMix draws the desk read mix: 60% one-line score, 20% score of every
// line on one DSLAM, 10% rank top-50, 10% locate; 90% of reads target the
// newest week, the rest weeks 35-42.
type readMix struct {
	r      *rng.RNG
	ds     *data.Dataset
	dslams [][]data.LineID
}

func newReadMix(ds *data.Dataset, r *rng.RNG) *readMix {
	m := &readMix{r: r, ds: ds, dslams: make([][]data.LineID, ds.NumDSLAMs)}
	for l := 0; l < ds.NumLines; l++ {
		d := ds.DSLAMOf[l]
		m.dslams[d] = append(m.dslams[d], data.LineID(l))
	}
	return m
}

func (m *readMix) week() int {
	if m.r.Bool(0.9) {
		return preloadTo
	}
	return deskWeeksFirst + m.r.Intn(preloadTo-deskWeeksFirst)
}

func (m *readMix) next() request {
	u := m.r.Float64()
	w := m.week()
	switch {
	case u < 0.6:
		return scoreReq(w, data.LineID(m.r.Intn(m.ds.NumLines)))
	case u < 0.8:
		return scoreReq(w, m.dslams[m.r.Intn(len(m.dslams))]...)
	case u < 0.9:
		return rankReq(w, 50)
	default:
		return locateReq(w, data.LineID(m.r.Intn(m.ds.NumLines)))
	}
}

func scoreReq(week int, lines ...data.LineID) request {
	b := []byte(`{"examples":[`)
	for i, l := range lines {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"line":`...)
		b = strconv.AppendInt(b, int64(l), 10)
		b = append(b, `,"week":`...)
		b = strconv.AppendInt(b, int64(week), 10)
		b = append(b, '}')
	}
	return request{class: "score", lookup: len(lines) == 1, path: "/v1/score", body: append(b, "]}"...)}
}

func rankReq(week, n int) request {
	return request{class: "rank", path: "/v1/rank?week=" + strconv.Itoa(week) + "&n=" + strconv.Itoa(n)}
}

func locateReq(week int, line data.LineID) request {
	b := []byte(`{"line":`)
	b = strconv.AppendInt(b, int64(line), 10)
	b = append(b, `,"week":`...)
	b = strconv.AppendInt(b, int64(week), 10)
	return request{class: "locate", path: "/v1/locate", body: append(b, '}')}
}

// Desk load shape.
const (
	deskRate       = 400             // reads per second, open loop
	feedEvery      = 5 * time.Second // desk_feed: one ingest per period
	feedRecords    = 200             // records per desk_feed ingest
	deskRankN      = 50
	probeScores    = 24 // correctness-gate sample sizes
	probeLocates   = 8
	warmReadsDesk  = 400 // untimed mix requests after the table warm-up
	deskWeeksFirst = 35  // reads target weeks 35-43
)

// deskStream builds the desk or desk_feed request stream for a seed.
func deskStream(ds *data.Dataset, seed uint64, seconds int, feed bool) (*stream, error) {
	weeks, err := weekBatches(ds, preloadFrom, preloadTo, 0)
	if err != nil {
		return nil, err
	}
	st := &stream{}
	for _, w := range weeks {
		st.preload = append(st.preload, w...)
	}
	mix := newReadMix(ds, rng.Derive(seed, 0xde5c))
	// Warm-up: one DSLAM-wide score per read week builds every week table on
	// both shards, then a rank and some plain mix traffic.
	for w := deskWeeksFirst; w <= preloadTo; w++ {
		st.warm = append(st.warm, scoreReq(w, mix.dslams[0]...))
		st.warm = append(st.warm, rankReq(w, deskRankN))
	}
	for i := 0; i < warmReadsDesk; i++ {
		st.warm = append(st.warm, mix.next())
	}
	n := deskRate * seconds
	period := time.Second / deskRate
	for i := 0; i < n; i++ {
		r := mix.next()
		r.due = time.Duration(i) * period
		st.timed = append(st.timed, r)
	}
	if feed {
		ing, err := feedIngests(ds, seed, time.Duration(seconds)*time.Second)
		if err != nil {
			return nil, err
		}
		st.timed = mergeByDue(st.timed, ing)
	}
	pr := newReadMix(ds, rng.Derive(seed, 0x9a7e))
	st.probes = append(st.probes, rankReq(preloadTo, deskRankN), rankReq(preloadTo-1, 400))
	for i := 0; i < probeScores; i++ {
		w := pr.week()
		if i%2 == 0 {
			st.probes = append(st.probes, scoreReq(w, data.LineID(pr.r.Intn(ds.NumLines))))
		} else {
			st.probes = append(st.probes, scoreReq(w, pr.dslams[pr.r.Intn(len(pr.dslams))]...))
		}
	}
	for i := 0; i < probeLocates; i++ {
		st.probes = append(st.probes, locateReq(pr.week(), data.LineID(pr.r.Intn(ds.NumLines))))
	}
	return st, nil
}

// feedIngests builds desk_feed's writes: every feedEvery, feedRecords
// week-43 tests re-delivered with the values the preload carried (a feed
// retry), walking a seeded permutation of the population. The store's
// content never changes, so the reference needs no ordering, but every
// ingest bumps each shard's version and drops its snapshot and week tables.
func feedIngests(ds *data.Dataset, seed uint64, window time.Duration) ([]request, error) {
	perm := rng.Derive(seed, 0xfeed).Perm(ds.NumLines)
	var out []request
	pos := 0
	for k := 0; ; k++ {
		// Mid-period, and offset by half a read period so a write never
		// shares a due time with a read.
		due := time.Duration(k)*feedEvery + feedEvery/2 + time.Second/deskRate/2
		if due >= window {
			break
		}
		tests := make([]sim.LineTest, feedRecords)
		for i := range tests {
			l := perm[pos%len(perm)]
			pos++
			tests[i] = sim.LineTest{M: *ds.At(data.LineID(l), preloadTo), Profile: ds.ProfileOf[l], DSLAM: ds.DSLAMOf[l], Usage: ds.UsageOf[l]}
		}
		body, err := appendIngest(nil, tests, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, request{class: "ingest", path: "/v1/ingest", body: body, due: due})
	}
	return out, nil
}

// mergeByDue merges two due-ordered request lists.
func mergeByDue(a, b []request) []request {
	out := make([]request, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].due < a[0].due {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// tickStream builds the tick workload's stream: the preload and the weekly
// batches, in fixed-size batches.
func tickStream(ds *data.Dataset) (*stream, error) {
	weeks, err := weekBatches(ds, preloadFrom, tickTo, batchRecords)
	if err != nil {
		return nil, err
	}
	st := &stream{}
	for _, w := range weeks[:preloadTo-preloadFrom+1] {
		st.preload = append(st.preload, w...)
	}
	st.weeks = weeks[preloadTo-preloadFrom+1:]
	return st, nil
}

// digest hashes everything a stream sends, in order, so two streams can be
// compared byte for byte.
func (st *stream) digest() [32]byte {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	reqs := func(rs []request) {
		for _, r := range rs {
			put([]byte(r.class + " " + r.path + " " + r.due.String()))
			put(r.body)
		}
	}
	for _, b := range st.preload {
		put(b)
	}
	reqs(st.warm)
	reqs(st.timed)
	for _, w := range st.weeks {
		for _, b := range w {
			put(b)
		}
	}
	reqs(st.probes)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
