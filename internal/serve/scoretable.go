package serve

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"nevermind/internal/data"
	"nevermind/internal/features"
)

// weekTable is the resident scoring column for one (model generation, week):
// every line's compiled-model score and calibrated probability, plus the
// prerendered JSON fragment the fast response writers splice. It is built
// once per (snapshot, models, week) by whichever request arrives first and
// then serves /v1/score, /v1/rank and the pipeline's weekly ranking as pure
// table lookups — zero feature encoding, zero float formatting per request.
//
// Scores are computed by the exact batch call the legacy per-request path
// used (ScoreExamplesIx over single-week examples), so a table lookup is
// bit-identical to an uncached PredictExamples for the same example.
//
// A delta-applied snapshot inherits its base's tables instead of starting
// empty (see carryTables): a table the delta cannot reach is shared by
// pointer, and one it can reach is patched from its base by rescoring only
// the lines the delta made dirty.
type weekTable struct {
	week int

	once sync.Once
	err  error
	// built flips once the table holds a complete, error-free column: only
	// built tables are carried into the next snapshot.
	built atomic.Bool
	// scores[l] / probs[l] index by line id; the table covers every line in
	// [0, NumLines), present or not, so any valid score request hits it.
	scores []float64
	probs  []float64
	// frags holds every line's rendered prediction object back to back;
	// line l's fragment is frags[fragOff[l]:fragOff[l+1]].
	frags   []byte
	fragOff []int32

	// from and dirty are set on a patched table until its first read fills
	// it: the base snapshot's table and the ascending lines to rescore.
	from  *weekTable
	dirty []data.LineID

	// ranked is built lazily on the first /v1/rank or pipeline ranking:
	// the week's present lines, score-descending (ties line-ascending).
	rankOnce sync.Once
	ranked   []data.LineID
}

// tabKey identifies a table in a snapshot's cache. Models is compared by
// pointer: a hot reload installs a new *Models, so stale generations can
// never serve a fresh request.
type tabKey struct {
	models *Models
	week   int
}

// maxWeekTables bounds a snapshot's table cache. 16 covers every week a
// steady-state server scores (the current week plus history probes) times a
// reload or two; past the cap, tables are built per request and not retained.
const maxWeekTables = 16

// scoreTable returns the (cached) score table for week under the given model
// generation, building it on first use — or, when the snapshot carried the
// table in from its base, sharing or patching that one. A build error is
// cached in the table — the model's schema mismatch is deterministic per
// (models, snapshot) — and returned to every caller.
func (sn *Snapshot) scoreTable(models *Models, week int) (*weekTable, error) {
	k := tabKey{models: models, week: week}
	sn.tabMu.Lock()
	if sn.tabs == nil {
		sn.tabs = make(map[tabKey]*weekTable)
	}
	t := sn.tabs[k]
	if t == nil {
		if t = sn.carry[k]; t == nil {
			t = &weekTable{week: week}
		}
		if len(sn.tabs) < maxWeekTables {
			sn.tabs[k] = t
			delete(sn.carry, k)
		}
	}
	sn.tabMu.Unlock()
	t.once.Do(func() {
		if t.from != nil {
			t.patch(sn, models)
		} else {
			t.build(sn, models)
		}
		t.from, t.dirty = nil, nil
		t.built.Store(t.err == nil)
	})
	return t, t.err
}

func (t *weekTable) build(sn *Snapshot, models *Models) {
	n := sn.DS.NumLines
	examples := make([]features.Example, n)
	for l := 0; l < n; l++ {
		examples[l] = features.Example{Line: data.LineID(l), Week: t.week}
	}
	scores, err := models.Pred.ScoreExamplesIx(sn.DS, sn.Ix, examples)
	if err != nil {
		t.err = err
		return
	}
	t.scores = scores
	t.probs = make([]float64, n)
	for l, s := range scores {
		t.probs[l] = models.Pred.Model.Probability(s)
	}
	t.fragOff = make([]int32, n+1)
	buf := make([]byte, 0, n*64)
	for l := 0; l < n; l++ {
		buf = t.appendFrag(buf, data.LineID(l))
		t.fragOff[l+1] = int32(len(buf))
	}
	t.frags = buf
}

// patch fills a carried table from its base: copies of the base's columns
// with the dirty lines rescored through the same batch call build makes and
// their fragments re-rendered. A line's score depends only on its own cells,
// attributes and tickets plus the week's imputation fallback, and
// carryTables patches only when the fallback held, so every clean line's
// score, probability and fragment bytes are the base's unchanged.
func (t *weekTable) patch(sn *Snapshot, models *Models) {
	src := t.from
	examples := make([]features.Example, len(t.dirty))
	for i, l := range t.dirty {
		examples[i] = features.Example{Line: l, Week: t.week}
	}
	scores, err := models.Pred.ScoreExamplesIx(sn.DS, sn.Ix, examples)
	if err != nil {
		t.err = err
		return
	}
	t.scores = append([]float64(nil), src.scores...)
	t.probs = append([]float64(nil), src.probs...)
	for i, l := range t.dirty {
		t.scores[l] = scores[i]
		t.probs[l] = models.Pred.Model.Probability(scores[i])
	}
	n := len(t.scores)
	t.fragOff = make([]int32, n+1)
	buf := make([]byte, 0, len(src.frags)+len(t.dirty)*8)
	// copyRun splices the base's fragments for the clean lines [a, b).
	copyRun := func(a, b int) {
		shift := int32(len(buf)) - src.fragOff[a]
		buf = append(buf, src.frags[src.fragOff[a]:src.fragOff[b]]...)
		for l := a; l < b; l++ {
			t.fragOff[l+1] = src.fragOff[l+1] + shift
		}
	}
	next := 0
	for _, l := range t.dirty {
		copyRun(next, int(l))
		buf = t.appendFrag(buf, l)
		t.fragOff[l+1] = int32(len(buf))
		next = int(l) + 1
	}
	copyRun(next, n)
	t.frags = buf
}

// appendFrag renders line l's prediction object from the table's columns.
func (t *weekTable) appendFrag(buf []byte, l data.LineID) []byte {
	buf = append(buf, `{"line":`...)
	buf = strconv.AppendInt(buf, int64(l), 10)
	buf = append(buf, `,"week":`...)
	buf = strconv.AppendInt(buf, int64(t.week), 10)
	buf = append(buf, `,"score":`...)
	buf = appendJSONFloat(buf, t.scores[l])
	buf = append(buf, `,"probability":`...)
	buf = appendJSONFloat(buf, t.probs[l])
	return append(buf, '}')
}

// frag returns line l's prerendered prediction object.
func (t *weekTable) frag(l data.LineID) []byte {
	return t.frags[t.fragOff[l]:t.fragOff[l+1]]
}

// rankedLines returns the week's present population best-first: score
// descending, ties by ascending line id — the order /v1/rank has always
// served. Built once per table; callers must not modify the slice.
func (t *weekTable) rankedLines(sn *Snapshot) []data.LineID {
	t.rankOnce.Do(func() {
		lines := sn.LinesAt(t.week)
		r := append([]data.LineID(nil), lines...)
		// (score desc, line asc) is a strict total order — line ids are
		// unique — so the unstable sort is deterministic.
		sort.Slice(r, func(a, b int) bool {
			if t.scores[r[a]] != t.scores[r[b]] {
				return t.scores[r[a]] > t.scores[r[b]]
			}
			return r[a] < r[b]
		})
		t.ranked = r
	})
	return t.ranked
}

// tableDelta is what one delta apply changed, in the terms a week table's
// scores depend on: line l's week-w score reads l's cells at weeks ≤ w, its
// attributes, its tickets up to w's Saturday, and week w's imputation
// fallback (the mean over every line's week-w cell).
type tableDelta struct {
	cells   []cellKey
	tickets []data.Ticket // tickets the delta added to the snapshot
	attrs   []data.LineID // lines whose profile, DSLAM or usage changed
}

// carryTables decides what the snapshot sn, derived from base by d, inherits
// of the week tables read on base. Per table at week w:
//
//   - share (same pointer, ranked order included) when d touched no cell at a
//     week ≤ w, added no ticket on or before w's Saturday and changed no
//     line's attributes: every score, fragment and the ranked order stand;
//   - drop when d touched a week-w cell and the week's imputation fallback
//     moved by even one bit: every line imputing from it changed, so the
//     first read rebuilds the table from scratch;
//   - patch otherwise: the returned table is filled on its first read from
//     the base's by rescoring only the dirty lines (see weekTable.patch).
//
// Only tables read on base are carried (base.tabs, not base.carry), so a week
// nobody reads anymore falls out after one generation and memory stays
// bounded by what is actually served.
func carryTables(base, sn *Snapshot, d tableDelta) map[tabKey]*weekTable {
	base.tabMu.Lock()
	live := make(map[tabKey]*weekTable, len(base.tabs))
	for k, t := range base.tabs {
		if t.built.Load() {
			live[k] = t
		}
	}
	base.tabMu.Unlock()
	if len(live) == 0 {
		return nil
	}
	out := make(map[tabKey]*weekTable, len(live))
	dirty := make(map[int][]data.LineID)
	moved := make(map[int]bool)
	for k, t := range live {
		w := k.week
		lines, ok := dirty[w]
		if !ok {
			lines = d.dirtyLines(w)
			dirty[w] = lines
			if d.touchesWeek(w) {
				moved[w] = !sameBits(features.WeekFallback(base.DS, w), features.WeekFallback(sn.DS, w))
			}
		}
		switch {
		case len(lines) == 0:
			out[k] = t
		case !moved[w]:
			out[k] = &weekTable{week: w, from: t, dirty: lines}
		}
	}
	return out
}

// dirtyLines returns, ascending and unique, the lines whose week-w score the
// delta may have changed.
func (d *tableDelta) dirtyLines(w int) []data.LineID {
	sat := data.SaturdayOf(w)
	var lines []data.LineID
	for _, c := range d.cells {
		if int(c.week) <= w {
			lines = append(lines, c.line)
		}
	}
	for _, tk := range d.tickets {
		if tk.Day <= sat {
			lines = append(lines, tk.Line)
		}
	}
	lines = append(lines, d.attrs...)
	sort.Slice(lines, func(a, b int) bool { return lines[a] < lines[b] })
	out := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			out = append(out, l)
		}
	}
	return out
}

// touchesWeek reports whether the delta touched any week-w cell.
func (d *tableDelta) touchesWeek(w int) bool {
	for _, c := range d.cells {
		if int(c.week) == w {
			return true
		}
	}
	return false
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
