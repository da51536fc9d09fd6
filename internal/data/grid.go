package data

import "fmt"

func errGrid(format string, args ...any) error {
	return fmt.Errorf("data: "+format, args...)
}

// MeasurementGrid is the one measurement layout: the dense week-major
// (week, line) grid of a Dataset, exactly one cell per (week, line), stored
// as fixed-size chunks of lines so a consumer that changes a handful of
// cells can share every untouched chunk with its predecessor and copy only
// the chunks it writes. Every (week, chunk) slot no record has written
// points at one shared, never-written chunk of no-record cells, so a grid
// allocates only the chunks its records wrote. The serving store keeps a
// live grid as its store of record and freezes it into each snapshot with
// ShareCopy: a weekly ingest touches a few hundred lines, and recopying a
// multi-hundred-MB grid per snapshot would make every ingest O(population).
//
// All fields are exported so a Dataset stays gob-encodable; treat them as
// read-only outside this file and write cells only through SetCOW.
type MeasurementGrid struct {
	NumLines int
	// ChunksPerWeek = ceil(NumLines / GridChunkLines); week w's chunk c sits
	// at Chunks[w*ChunksPerWeek+c], and only the last chunk of a week may be
	// short.
	ChunksPerWeek int
	Chunks        [][]Measurement
}

// GridChunkLines is the copy-on-write and allocation granularity in lines
// per chunk. 1024 lines x 120 B = ~120 KB per chunk: small enough that a
// delta touching one line copies little and that a week no record reached
// costs only its slot headers, large enough that a full grid is a few
// hundred chunk headers, not millions.
const GridChunkLines = 1024

// noRecord is the cell no record has written: Missing, and naming no line
// and no week.
var noRecord = Measurement{Line: -1, Week: -1, Missing: true}

// noRecordChunk is the chunk every unwritten (week, chunk) slot of every
// grid points at (a short last chunk at a prefix of it). Nothing writes it:
// SetCOW copies it on a slot's first write, and Validate checks it.
var noRecordChunk = func() []Measurement {
	c := make([]Measurement, GridChunkLines)
	for i := range c {
		c[i] = noRecord
	}
	return c
}()

// unwritten reports whether chunk is a slot on the shared no-record chunk.
func unwritten(chunk []Measurement) bool {
	return len(chunk) > 0 && &chunk[0] == &noRecordChunk[0]
}

// NewMeasurementGrid returns a grid for numLines lines whose every cell is
// the no-record default: all its slots point at the shared no-record chunk,
// so it allocates only its chunk table until SetCOW writes a cell.
func NewMeasurementGrid(numLines int) *MeasurementGrid {
	g := new(MeasurementGrid)
	g.Grow(numLines, nil)
	return g
}

// At returns the measurement cell for (line, week), which is read-only:
// chunks may be shared between grids, and a cell no record has written is
// the shared no-record chunk's, {Line: -1, Week: -1, Missing: true}. Write
// through SetCOW. It panics on out-of-range arguments.
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

// SetCOW writes m into cell (line, week), the only way to write a cell. It
// copies the containing chunk first unless owned marks it private to this
// grid, and returns the number of cells the write took off the shared
// no-record chunk: the slot's length on its first write, else 0. owned is
// a caller-held bitmap of len(g.Chunks), all false for a fresh ShareCopy,
// in which a slot on the shared chunk is never set; nil means g shares no
// chunk with another grid, so only a slot on the shared chunk is copied.
func (g *MeasurementGrid) SetCOW(owned []bool, line LineID, week int, m Measurement) int {
	ci := week*g.ChunksPerWeek + int(line)/GridChunkLines
	chunk := g.Chunks[ci]
	fresh := 0
	if unwritten(chunk) {
		fresh = len(chunk)
	}
	if owned == nil && fresh > 0 || owned != nil && !owned[ci] {
		chunk = append([]Measurement(nil), chunk...)
		g.Chunks[ci] = chunk
		if owned != nil {
			owned[ci] = true
		}
	}
	chunk[int(line)%GridChunkLines] = m
	return fresh
}

// Grow widens g in place to numLines lines (a smaller count is a no-op) and
// returns SetCOW's owned bitmap laid out for the new chunk table; owned may
// be nil only while g is empty. New slots point at the shared no-record
// chunk and stay unowned until written. A week's written short last chunk
// is extended by no-record cells, copied first unless owned, and then
// owned; a chunk that has to move to grow moves to a whole chunk's
// capacity, so widening a line at a time copies each chunk at most once
// more.
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
			n := min(GridChunkLines, numLines-c*GridChunkLines)
			chunk := g.Chunks[i]
			if chunk == nil || unwritten(chunk) {
				// Capped at n, so an append can never reach the shared cells.
				g.Chunks[i] = noRecordChunk[:n:n]
				continue
			}
			if !owned[i] || cap(chunk) < n {
				chunk = append(make([]Measurement, 0, GridChunkLines), chunk...)
				owned[i] = true
			}
			old := len(chunk)
			chunk = chunk[:n]
			for j := old; j < n; j++ {
				chunk[j] = noRecord
			}
			g.Chunks[i] = chunk
		}
	}
	g.NumLines = numLines
	return owned
}

// HeldCells returns the number of cells g's written slots hold, the ones
// that do not point at the shared no-record chunk.
func (g *MeasurementGrid) HeldCells() int {
	n := 0
	for _, chunk := range g.Chunks {
		if !unwritten(chunk) {
			n += len(chunk)
		}
	}
	return n
}

// Validate checks the grid's structural invariants against numLines: the
// chunk table's shape, each slot either on the shared no-record chunk or
// holding cells that are the no-record default or stamped with their own
// (line, week), and the shared chunk still all default, so a write through
// At fails here. Called from Dataset.Validate and from tests asserting
// snapshots are never torn.
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
	for i := range noRecordChunk {
		if noRecordChunk[i] != noRecord {
			return errGrid("the shared no-record chunk was written at offset %d", i)
		}
	}
	for w := 0; w < Weeks; w++ {
		for c := 0; c < cpw; c++ {
			lo := c * GridChunkLines
			want := min(GridChunkLines, numLines-lo)
			chunk := g.Chunks[w*cpw+c]
			if len(chunk) != want {
				return errGrid("grid chunk (%d,%d) holds %d cells, want %d", w, c, len(chunk), want)
			}
			if unwritten(chunk) {
				continue
			}
			for i := range chunk {
				m := &chunk[i]
				if m.Week == w && m.Line == LineID(lo+i) || *m == noRecord {
					continue
				}
				return errGrid("grid record at (%d,%d) holds (%d,%d)", w, lo+i, m.Week, m.Line)
			}
		}
	}
	return nil
}
