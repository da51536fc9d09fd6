package serve

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"nevermind/internal/data"
	"nevermind/internal/features"
)

// weekTable is the resident scoring column for one (model generation, week):
// every line's compiled-model score and calibrated probability. It is built
// once per (snapshot, models, week) by whichever request arrives first and
// then serves /v1/score, /v1/rank and the pipeline's weekly ranking as table
// lookups — zero feature encoding per request. A response renders only the
// lines it sends (appendFrag), so a build or a patch formats no floats.
//
// Scores come from the predictor's encode plan (ScoreExamplesFallback over
// single-week examples, with the snapshot's cached week fallback, which is
// the vector ScoreExamplesIx computes for them), so a table lookup is
// bit-identical to an uncached PredictExamples for the same example.
//
// A snapshot published from a base inherits the base's tables instead of
// starting empty (see carryTables): a table the writes in between cannot
// reach is shared by pointer, and one they can reach is patched from its
// base by rescoring only the lines they made dirty.
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
	scores, err := models.Pred.ScoreExamplesFallback(sn.DS, sn.Ix, examples, sn.weekFallback(t.week))
	if err != nil {
		t.err = err
		return
	}
	t.scores = scores
	t.probs = make([]float64, n)
	for l, s := range scores {
		t.probs[l] = models.Pred.Model.Probability(s)
	}
}

// patch fills a carried table from its base: copies of the base's two
// columns with the dirty lines rescored through the same batch call build
// makes. A line's score depends only on its own cells, attributes and
// tickets plus the week's imputation fallback, and carryTables patches only
// when the fallback held, so every clean line's score and probability are
// the base's unchanged.
func (t *weekTable) patch(sn *Snapshot, models *Models) {
	src := t.from
	examples := make([]features.Example, len(t.dirty))
	for i, l := range t.dirty {
		examples[i] = features.Example{Line: l, Week: t.week}
	}
	scores, err := models.Pred.ScoreExamplesFallback(sn.DS, sn.Ix, examples, sn.weekFallback(t.week))
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
}

// appendFrag renders line l's prediction object from the table's columns,
// into the response that sends it.
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

// rankedLines returns the week's present population best-first: score
// descending, ties by ascending line id — the order /v1/rank has always
// served. Built once per table; callers must not modify the slice.
func (t *weekTable) rankedLines(sn *Snapshot) []data.LineID {
	t.rankOnce.Do(func() { t.ranked = rankByScore(t.scores, sn.LinesAt(t.week)) })
	return t.ranked
}

// rankKey packs one line's sort key next to it, so the sort compares
// contiguous keys instead of chasing scores[line].
type rankKey struct {
	score float64
	line  data.LineID
}

// rankByScore returns lines sorted by scores[line] descending, ties by
// ascending line id. Scores are finite, so (score desc, line asc) is a
// strict total order — line ids are unique, and +0 and -0 compare equal and
// tie by line — and the unstable sort is deterministic.
func rankByScore(scores []float64, lines []data.LineID) []data.LineID {
	keys := make([]rankKey, len(lines))
	for i, l := range lines {
		keys[i] = rankKey{scores[l], l}
	}
	slices.SortFunc(keys, func(a, b rankKey) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		}
		return cmp.Compare(a.line, b.line)
	})
	r := make([]data.LineID, len(keys))
	for i, k := range keys {
		r[i] = k.line
	}
	return r
}

// tableDelta is what one publish changed against its base, in the terms a
// week table's scores depend on: line l's week-w score reads l's cells at
// weeks ≤ w, its attributes, its tickets up to w's Saturday, and week w's
// imputation fallback (the mean over every line's week-w cell).
type tableDelta struct {
	cells   []lineWrite   // each written line once, with its written weeks
	tickets []data.Ticket // tickets the publish added to the snapshot
	attrs   []data.LineID // lines whose profile, DSLAM or usage changed
}

// carryTables decides what the snapshot sn, published from base with d, inherits
// of the week tables read on base. Per table at week w:
//
//   - share (same pointer, ranked order included) when d touched no cell at a
//     week ≤ w, added no ticket on or before w's Saturday and changed no
//     line's attributes: every score, probability and the ranked order stand;
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
				moved[w] = !sameBits(base.weekFallback(w), sn.weekFallback(w))
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

// fallbackSlot is one week's imputation fallback, computed once.
type fallbackSlot struct {
	once sync.Once
	vec  []float32
}

// weekFallback returns features.WeekFallback(sn.DS, w), computing it at most
// once per slot. Snapshots share a slot only while their week-w cells agree,
// so whichever computes it computes the same vector.
func (sn *Snapshot) weekFallback(w int) []float32 {
	fs := sn.fallbacks[w]
	fs.once.Do(func() { fs.vec = features.WeekFallback(sn.DS, w) })
	return fs.vec
}

// dirtyLines returns, ascending and unique, the lines whose week-w score the
// delta may have changed.
func (d *tableDelta) dirtyLines(w int) []data.LineID {
	sat := data.SaturdayOf(w)
	var lines []data.LineID
	upTo := uint64(1)<<(w+1) - 1 // weeks 0..w
	for _, c := range d.cells {
		if c.weeks&upTo != 0 {
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
		if c.weeks&(1<<w) != 0 {
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
