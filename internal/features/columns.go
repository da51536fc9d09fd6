package features

import (
	"fmt"
	"slices"
	"strings"

	"nevermind/internal/data"
	"nevermind/internal/ml"
)

// ColumnSet is a parsed request for named Table 3 columns: base columns
// ("basic:dnbr", "ts:upnmr", ...), quadratic ones ("quad:" + a delta or ts
// name) and products ("prod:" + a + "*" + b over base or quadratic names,
// the names ProductColumns gives). Encoding it computes only what those
// names read: the base columns they name or multiply, and history sums only
// for the ts: features among them. Each value is bit-identical to the
// same-named column of Encode (with the products ProductColumns adds)
// under the same fallback.
type ColumnSet struct {
	cfg  Config
	base []int // baseCols indices to compute, ascending
	outs []outCol
}

// outCol is one requested column: a product of one or two terms over the
// computed base columns.
type outCol struct {
	name        string
	group       Group
	categorical bool
	a, b        term
	prod        bool
}

// term is a computed base column by slot, squared for a quadratic one.
type term struct {
	slot   int
	square bool
}

// NewColumnSet parses names under cfg. A quad: name (alone or in a product)
// needs cfg.Quadratic, as Encode only emits quadratic columns then.
func NewColumnSet(cfg Config, names []string) (*ColumnSet, error) {
	cfg = cfg.defaults()
	type ref struct {
		base   int
		square bool
	}
	// resolve parses a base or quadratic column name.
	resolve := func(name string) (ref, bool) {
		if i, ok := baseIndex[name]; ok {
			return ref{base: i}, true
		}
		inner, ok := strings.CutPrefix(name, "quad:")
		if !ok || !cfg.Quadratic {
			return ref{}, false
		}
		i, ok := baseIndex[inner]
		if !ok || !squared(baseCols[i]) {
			return ref{}, false
		}
		return ref{base: i, square: true}, true
	}
	type parsed struct {
		a, b ref
		prod bool
	}
	ps := make([]parsed, len(names))
	used := map[int]bool{}
	for j, name := range names {
		if r, ok := resolve(name); ok {
			ps[j] = parsed{a: r}
		} else if body, ok := strings.CutPrefix(name, "prod:"); ok {
			for k := range body {
				if body[k] != '*' {
					continue
				}
				a, okA := resolve(body[:k])
				b, okB := resolve(body[k+1:])
				if okA && okB {
					ps[j] = parsed{a: a, b: b, prod: true}
					break
				}
			}
			if !ps[j].prod {
				return nil, fmt.Errorf("features: unknown product column %q", name)
			}
		} else {
			return nil, fmt.Errorf("features: unknown column %q", name)
		}
		used[ps[j].a.base] = true
		if ps[j].prod {
			used[ps[j].b.base] = true
		}
	}
	cs := &ColumnSet{cfg: cfg}
	for i := range baseCols {
		if used[i] {
			cs.base = append(cs.base, i)
		}
	}
	slot := func(r ref) term {
		k, _ := slices.BinarySearch(cs.base, r.base)
		return term{slot: k, square: r.square}
	}
	cs.outs = make([]outCol, len(names))
	for j, p := range ps {
		o := outCol{name: names[j], a: slot(p.a), prod: p.prod}
		switch {
		case p.prod:
			o.b = slot(p.b)
			o.group = GroupProd
			// A product of indicators is an indicator (as ProductColumns).
			o.categorical = baseCols[p.a.base].categorical && !p.a.square &&
				baseCols[p.b.base].categorical && !p.b.square
		case p.a.square:
			o.group = GroupQuad
		default:
			o.group = baseCols[p.a.base].group
			o.categorical = baseCols[p.a.base].categorical
		}
		cs.outs[j] = o
	}
	return cs, nil
}

// AllColumns is the set of every column Encode emits under cfg, in Encode's
// order: the base columns, then (with cfg.Quadratic) the quadratic ones.
func AllColumns(cfg Config) *ColumnSet {
	cfg = cfg.defaults()
	outs := baseOuts
	if cfg.Quadratic {
		outs = quadOuts
	}
	return &ColumnSet{cfg: cfg, base: allBase, outs: outs}
}

// baseOuts and quadOuts are AllColumns' output lists without and with the
// quadratic columns.
var baseOuts, quadOuts = func() ([]outCol, []outCol) {
	var outs []outCol
	for i, c := range baseCols {
		outs = append(outs, outCol{name: c.name, group: c.group, categorical: c.categorical, a: term{slot: i}})
	}
	quad := slices.Clone(outs)
	for i, c := range baseCols {
		if squared(c) {
			quad = append(quad, outCol{name: "quad:" + c.name, group: GroupQuad, a: term{slot: i, square: true}})
		}
	}
	return outs, quad
}()

// Encode computes the set's columns for the examples, in the order the
// names were given. fallback is the imputation vector for lines with no
// usable history: nil computes Encode's (the mean over the examples'
// weeks); a caller that already holds it — WeekFallback for single-week
// examples — passes it to skip that pass over the population. Example
// chunks run on workers (0 = GOMAXPROCS, 1 = sequential); the output is
// identical at any count.
func (cs *ColumnSet) Encode(ds *data.Dataset, ix *data.TicketIndex, examples []Example, fallback []float32, workers int) (*Encoded, error) {
	base, err := encodeBase(ds, ix, examples, cs.cfg, cs.base, fallback, workers)
	if err != nil {
		return nil, err
	}
	// Base columns pass through by value slice, squares and products are
	// computed from them.
	squares := make([][]float32, len(cs.base)) // each square computed once
	values := func(t term) []float32 {
		v := base.Cols[t.slot].Values
		if !t.square {
			return v
		}
		if squares[t.slot] == nil {
			squares[t.slot] = squareOf(v)
		}
		return squares[t.slot]
	}
	out := &Encoded{Examples: base.Examples, Cols: make([]ml.Column, len(cs.outs)), Groups: make([]Group, len(cs.outs))}
	for j, o := range cs.outs {
		v := values(o.a)
		if o.prod {
			v = productOf(v, values(o.b))
		}
		out.Cols[j] = ml.Column{Name: o.name, Categorical: o.categorical, Values: v}
		out.Groups[j] = o.group
	}
	return out, nil
}

// squared reports whether base column c has a quadratic column: the signed
// deviations (delta and ts). The paper's quadratic features "model the
// variance of each variable": the square of a deviation measures its
// magnitude regardless of direction, which a single threshold stump cannot.
// Squares of the positive-valued basic counters are monotone transforms —
// redundant for stumps — so they would only waste selection slots, and the
// square of a binary indicator is itself.
func squared(c baseCol) bool {
	return !c.categorical && (c.group == GroupDelta || c.group == GroupTS)
}

// squareOf returns v*v per value: a quadratic column's values.
func squareOf(vals []float32) []float32 {
	sq := make([]float32, len(vals))
	for i, v := range vals {
		sq[i] = v * v
	}
	return sq
}

// productOf returns a*b per value: a product column's values.
func productOf(a, b []float32) []float32 {
	v := make([]float32, len(a))
	for i := range v {
		v[i] = a[i] * b[i]
	}
	return v
}
