package data

import "fmt"

func errGrid(format string, args ...any) error {
	return fmt.Errorf("data: "+format, args...)
}

// MeasurementGrid is the one measurement layout: the dense week-major
// (week, line) grid of a Dataset, exactly one record per cell, stored as
// fixed-size chunks of lines so a consumer that changes a handful of cells
// can share every untouched chunk with its predecessor and copy only the
// chunks it writes. The serving store keeps a live grid as its store of
// record and freezes it into each snapshot with ShareCopy: a weekly ingest
// touches a few hundred lines, and recopying a multi-hundred-MB grid per
// snapshot would make every ingest O(population).
//
// All fields are exported so a Dataset stays gob-encodable; treat them as
// read-only outside this file and the copy-on-write helpers.
type MeasurementGrid struct {
	NumLines int
	// ChunksPerWeek = ceil(NumLines / GridChunkLines); week w's chunk c sits
	// at Chunks[w*ChunksPerWeek+c], and only the last chunk of a week may be
	// short.
	ChunksPerWeek int
	Chunks        [][]Measurement
}

// GridChunkLines is the copy-on-write granularity in lines per chunk. 1024
// lines x 120 B = ~120 KB per chunk: small enough that a delta touching one
// line copies little, large enough that a full grid is a few hundred chunk
// headers, not millions.
const GridChunkLines = 1024

// NewMeasurementGrid allocates a dense grid for numLines lines with every
// cell initialised to the Missing default ("no record at all"), with Line
// and Week stamped so Validate's identity check holds.
func NewMeasurementGrid(numLines int) *MeasurementGrid {
	g := new(MeasurementGrid)
	g.Grow(numLines, nil)
	return g
}

// At returns the measurement cell for (line, week). It panics on
// out-of-range arguments. Callers other than the grid's owner must treat the
// cell as read-only: chunks may be shared between grids.
func (g *MeasurementGrid) At(line LineID, week int) *Measurement {
	return &g.Chunks[week*g.ChunksPerWeek+int(uint32(line)/GridChunkLines)][uint32(line)%GridChunkLines]
}

// ShareCopy returns a grid sharing every chunk with g: only the top-level
// chunk-pointer table is copied. Pair it with SetCOW, which copies a shared
// chunk the first time it is written.
func (g *MeasurementGrid) ShareCopy() *MeasurementGrid {
	return &MeasurementGrid{
		NumLines:      g.NumLines,
		ChunksPerWeek: g.ChunksPerWeek,
		Chunks:        append([][]Measurement(nil), g.Chunks...),
	}
}

// SetCOW writes m into cell (line, week), copying the containing chunk first
// unless owned already marks it private to this grid. owned must be a
// caller-held bitmap of len(g.Chunks), all false for a fresh ShareCopy.
func (g *MeasurementGrid) SetCOW(owned []bool, line LineID, week int, m Measurement) {
	ci := week*g.ChunksPerWeek + int(line)/GridChunkLines
	if !owned[ci] {
		g.Chunks[ci] = append([]Measurement(nil), g.Chunks[ci]...)
		owned[ci] = true
	}
	g.Chunks[ci][int(line)%GridChunkLines] = m
}

// Grow widens g in place to numLines lines (a smaller count is a no-op) and
// returns SetCOW's owned bitmap (nil for an empty grid) laid out for the new
// chunk table. Each week's short last chunk is extended, copied first unless
// owned, and new chunks hold the Missing default; both end up owned. A chunk
// that has to move to grow moves to a whole chunk's capacity, so widening a
// line at a time copies each chunk at most once more.
func (g *MeasurementGrid) Grow(numLines int, owned []bool) []bool {
	if numLines <= g.NumLines {
		return owned
	}
	cpw := (numLines + GridChunkLines - 1) / GridChunkLines
	if cpw != g.ChunksPerWeek {
		chunks := make([][]Measurement, Weeks*cpw)
		laid := make([]bool, Weeks*cpw)
		for w := 0; w < Weeks; w++ {
			copy(chunks[w*cpw:], g.Chunks[w*g.ChunksPerWeek:(w+1)*g.ChunksPerWeek])
			copy(laid[w*cpw:], owned[w*g.ChunksPerWeek:(w+1)*g.ChunksPerWeek])
		}
		g.ChunksPerWeek, g.Chunks, owned = cpw, chunks, laid
	}
	for w := 0; w < Weeks; w++ {
		for c := g.NumLines / GridChunkLines; c < cpw; c++ {
			i := w*cpw + c
			lo := c * GridChunkLines
			n := min(GridChunkLines, numLines-lo)
			chunk := g.Chunks[i]
			if !owned[i] || cap(chunk) < n {
				room := n
				if len(chunk) > 0 {
					room = GridChunkLines
				}
				chunk = append(make([]Measurement, 0, room), chunk...)
				owned[i] = true
			}
			// Cells past a chunk's length are zero (make and append zero
			// spare capacity), so stamping the defaults sets three fields.
			old := len(chunk)
			chunk = chunk[:n]
			for j := old; j < n; j++ {
				c := &chunk[j]
				c.Line, c.Week, c.Missing = LineID(lo+j), w, true
			}
			g.Chunks[i] = chunk
		}
	}
	g.NumLines = numLines
	return owned
}

// Validate checks the grid's structural invariants against numLines; called
// from Dataset.Validate and from tests asserting snapshots are never torn.
func (g *MeasurementGrid) Validate(numLines int) error {
	if g == nil {
		return errGrid("dataset has no measurement grid")
	}
	if g.NumLines != numLines {
		return errGrid("grid sized for %d lines, dataset has %d", g.NumLines, numLines)
	}
	cpw := (numLines + GridChunkLines - 1) / GridChunkLines
	if g.ChunksPerWeek != cpw {
		return errGrid("grid has %d chunks per week, want %d", g.ChunksPerWeek, cpw)
	}
	if len(g.Chunks) != Weeks*cpw {
		return errGrid("grid has %d chunks, want %d", len(g.Chunks), Weeks*cpw)
	}
	for w := 0; w < Weeks; w++ {
		for c := 0; c < cpw; c++ {
			lo := c * GridChunkLines
			want := min(GridChunkLines, numLines-lo)
			chunk := g.Chunks[w*cpw+c]
			if len(chunk) != want {
				return errGrid("grid chunk (%d,%d) holds %d cells, want %d", w, c, len(chunk), want)
			}
			for i := range chunk {
				if chunk[i].Week != w || chunk[i].Line != LineID(lo+i) {
					return errGrid("grid record at (%d,%d) holds (%d,%d)",
						w, lo+i, chunk[i].Week, chunk[i].Line)
				}
			}
		}
	}
	return nil
}
