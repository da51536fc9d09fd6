package features

import (
	"fmt"

	"nevermind/internal/ml"
)

// Product features (Table 3, "derived"): pairwise products that let the
// linear BStump model see interactions between features. The full cross of
// all history+customer features is quadratic in size, so the pipeline scores
// candidate pairs on a subsample and materialises only the survivors
// (Fig. 4c selects products with AP(20K) > 0.3).

// Pair identifies a product of two encoded columns by index.
type Pair struct{ A, B int }

// AllPairs returns every unordered pair of the given column indices.
func AllPairs(indices []int) []Pair {
	var out []Pair
	for i := 0; i < len(indices); i++ {
		for j := i + 1; j < len(indices); j++ {
			out = append(out, Pair{indices[i], indices[j]})
		}
	}
	return out
}

// ProductColumns materialises the product columns for the pairs.
func ProductColumns(enc *Encoded, pairs []Pair) ([]ml.Column, error) {
	out := make([]ml.Column, 0, len(pairs))
	for _, p := range pairs {
		if p.A < 0 || p.A >= len(enc.Cols) || p.B < 0 || p.B >= len(enc.Cols) {
			return nil, fmt.Errorf("features: product pair (%d,%d) out of range", p.A, p.B)
		}
		a, b := enc.Cols[p.A], enc.Cols[p.B]
		out = append(out, ml.Column{
			Name:        "prod:" + a.Name + "*" + b.Name,
			Categorical: a.Categorical && b.Categorical, // product of indicators is an indicator
			Values:      productOf(a.Values, b.Values),
		})
	}
	return out, nil
}

// AppendColumns adds extra columns (e.g. selected products) to the encoded
// set under the given group.
func (e *Encoded) AppendColumns(cols []ml.Column, g Group) error {
	n := len(e.Examples)
	for _, c := range cols {
		if len(c.Values) != n {
			return fmt.Errorf("features: column %q has %d values for %d examples", c.Name, len(c.Values), n)
		}
		e.Cols = append(e.Cols, c)
		e.Groups = append(e.Groups, g)
	}
	return nil
}

// Subset returns a new Encoded containing only the chosen columns (shared
// backing arrays; cheap).
func (e *Encoded) Subset(indices []int) (*Encoded, error) {
	out := &Encoded{Examples: e.Examples}
	for _, i := range indices {
		if i < 0 || i >= len(e.Cols) {
			return nil, fmt.Errorf("features: subset index %d out of range", i)
		}
		out.Cols = append(out.Cols, e.Cols[i])
		out.Groups = append(out.Groups, e.Groups[i])
	}
	return out, nil
}

// SubsetRows returns a new Encoded with only the chosen examples (copies).
func (e *Encoded) SubsetRows(rows []int) (*Encoded, error) {
	out := &Encoded{
		Cols:     make([]ml.Column, len(e.Cols)),
		Groups:   append([]Group(nil), e.Groups...),
		Examples: make([]Example, len(rows)),
	}
	for ri, r := range rows {
		if r < 0 || r >= len(e.Examples) {
			return nil, fmt.Errorf("features: row %d out of range", r)
		}
		out.Examples[ri] = e.Examples[r]
	}
	for ci, c := range e.Cols {
		v := make([]float32, len(rows))
		for ri, r := range rows {
			v[ri] = c.Values[r]
		}
		out.Cols[ci] = ml.Column{Name: c.Name, Categorical: c.Categorical, Values: v}
	}
	return out, nil
}
