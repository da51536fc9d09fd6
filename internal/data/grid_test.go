package data

import (
	"maps"
	"testing"
)

// gridCell keys a model of a grid's written cells.
type gridCell struct {
	line LineID
	week int
}

// gridModelLines caps the fuzzed width at three chunks, the last one short.
const gridModelLines = 2*GridChunkLines + 100

// FuzzGridCOW drives a grid the way the serving store does (Grow, SetCOW
// with an owned bitmap, ShareCopy followed by clearing the bitmap) from a
// byte string, against a dense map model of the written cells. After every
// step the live grid and every earlier frozen copy must read exactly their
// models, with the no-record default where nothing was written, hold a
// chunk only where a cell was written, and pass Validate; the shared
// no-record chunk must stay all default.
func FuzzGridCOW(f *testing.F) {
	f.Add([]byte{0, 0x5d, 0xc0, 1, 0x10, 0x02, 6, 0x3f, 0x0f, 3, 0, 0, 1, 0x10, 0x03})
	// Grow across a chunk boundary, write both chunks, freeze, write the
	// frozen chunks again, then grow so the written short last chunk moves.
	f.Add([]byte{
		0, 0x50, 0x00, 1, 0x00, 0x05, 5, 0x48, 0x01, 3, 0, 0,
		1, 0x00, 0x05, 2, 0x48, 0x0e, 0, 0x86, 0x00, 9, 0x83, 0x02, 3, 0, 0, 13, 0x85, 0x01,
	})
	// Grow a line at a time through a written short chunk.
	f.Add([]byte{0, 0, 1, 1, 0, 0, 0, 0, 2, 3, 0, 0, 0, 0, 3, 1, 0, 2, 0, 0, 4, 3, 0, 0, 0, 0, 5, 2, 0, 4})
	// Writes before any grow, a no-op grow, and a freeze of an empty grid.
	f.Add([]byte{1, 1, 1, 3, 0, 0, 0, 0, 0, 0, 0x20, 0x00, 0, 0x10, 0x00, 1, 0x1f, 0x0f})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		type frozen struct {
			g     *MeasurementGrid
			model map[gridCell]Measurement
		}
		g := NewMeasurementGrid(0)
		var owned []bool
		model := map[gridCell]Measurement{}
		var copies []frozen
		for step := 0; len(ops) >= 3; step++ {
			op, a, b := ops[0], ops[1], ops[2]
			ops = ops[3:]
			switch op % 4 {
			case 0: // grow (a no-op when not wider)
				owned = g.Grow(min(int(a)<<4|int(b)&15, gridModelLines), owned)
			case 1, 2: // write one cell
				if g.NumLines == 0 {
					continue
				}
				line := LineID((int(a)<<4 | int(b)>>4) % g.NumLines)
				week := int(op>>2) % Weeks
				m := Measurement{Line: line, Week: week, Missing: b&1 != 0}
				m.F[int(a)%NumBasicFeatures] = float32(step) + 0.5
				c := line / GridChunkLines
				want := 0
				if !slotWritten(model, c, week) {
					want = min(GridChunkLines, g.NumLines-int(c)*GridChunkLines)
				}
				if fresh := g.SetCOW(owned, line, week, m); fresh != want {
					t.Fatalf("step %d: SetCOW(%d,%d) took %d cells off the shared chunk, want %d", step, line, week, fresh, want)
				}
				model[gridCell{line, week}] = m
			case 3: // freeze, as a publish does
				copies = append(copies, frozen{g.ShareCopy(), maps.Clone(model)})
				clear(owned)
			}
			checkGridModel(t, step, g, model)
			for i, c := range copies {
				if err := gridMatches(c.g, c.model); err != "" {
					t.Fatalf("step %d: frozen copy %d: %s", step, i, err)
				}
			}
			for i := range noRecordChunk {
				if noRecordChunk[i] != noRecord {
					t.Fatalf("step %d: the shared no-record chunk was written at %d", step, i)
				}
			}
		}
	})
}

// slotWritten reports whether the model holds a cell of chunk c at week.
func slotWritten(model map[gridCell]Measurement, c LineID, week int) bool {
	for k := range model {
		if k.week == week && k.line/GridChunkLines == c {
			return true
		}
	}
	return false
}

func checkGridModel(t *testing.T, step int, g *MeasurementGrid, model map[gridCell]Measurement) {
	t.Helper()
	if err := gridMatches(g, model); err != "" {
		t.Fatalf("step %d: live grid: %s", step, err)
	}
	if err := g.Validate(g.NumLines); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// gridMatches compares every cell of g with the model and returns what
// differs, or "". A slot with no modelled write must still point at the
// shared chunk (whose cells the caller checks), and HeldCells must count
// exactly the written slots' cells.
func gridMatches(g *MeasurementGrid, model map[gridCell]Measurement) string {
	written := make(map[int]bool)
	for k := range model {
		written[k.week*g.ChunksPerWeek+int(k.line)/GridChunkLines] = true
	}
	held := 0
	for w := 0; w < Weeks; w++ {
		for c := 0; c < g.ChunksPerWeek; c++ {
			i := w*g.ChunksPerWeek + c
			if !written[i] {
				if !unwritten(g.Chunks[i]) {
					return "a slot no record wrote holds its own chunk"
				}
				continue
			}
			lo := c * GridChunkLines
			n := min(GridChunkLines, g.NumLines-lo)
			held += n
			for l := LineID(lo); int(l) < lo+n; l++ {
				want, ok := model[gridCell{l, w}]
				if !ok {
					want = noRecord
				}
				if got := *g.At(l, w); got != want {
					return "cell differs from the model"
				}
			}
		}
	}
	if got := g.HeldCells(); got != held {
		return "HeldCells does not count the written slots"
	}
	return ""
}

// A grid allocates only the chunks its records write: a fresh grid holds
// none, one write takes one slot off the shared chunk, and Validate catches
// a write through At into the shared chunk.
func TestGridAllocatesOnlyWrittenChunks(t *testing.T) {
	g := NewMeasurementGrid(3 * GridChunkLines)
	if n := g.HeldCells(); n != 0 {
		t.Fatalf("fresh grid holds %d cells", n)
	}
	if m := *g.At(5, 7); m != noRecord {
		t.Fatalf("unwritten cell reads %+v", m)
	}
	if fresh := g.SetCOW(nil, GridChunkLines+5, 7, Measurement{Line: GridChunkLines + 5, Week: 7}); fresh != GridChunkLines {
		t.Fatalf("first write took %d cells", fresh)
	}
	if fresh := g.SetCOW(nil, GridChunkLines+6, 7, Measurement{Line: GridChunkLines + 6, Week: 7}); fresh != 0 {
		t.Fatalf("second write to a written chunk took %d cells", fresh)
	}
	if n := g.HeldCells(); n != GridChunkLines {
		t.Fatalf("grid holds %d cells, want one chunk", n)
	}
	if err := g.Validate(g.NumLines); err != nil {
		t.Fatal(err)
	}
	defer func() { noRecordChunk[3] = noRecord }()
	g.At(3, 0).Missing = false
	if err := g.Validate(g.NumLines); err == nil {
		t.Fatal("a write into the shared no-record chunk passed validation")
	}
}
