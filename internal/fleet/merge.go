package fleet

import (
	"bytes"
	"container/heap"
	"fmt"
	"strconv"
)

// The rank merge works on the shards' prerendered JSON prediction fragments
// without re-encoding them: each shard's /v1/rank body is split into its
// `{"line":..,"week":..,"score":..,"probability":..}` objects, the merge
// orders them by (score desc, line asc) — the exact total order every shard
// ranked by — and the gateway splices the winning fragments verbatim into
// its own envelope. Scores parse bit-exactly because the daemon renders
// float64s in shortest-round-trip form (the encoding/json contract the fast
// path reproduces), so strconv.ParseFloat recovers the identical bits and
// cross-shard comparisons agree with what a single node holding all the
// lines would have computed.

// splitArray returns the top-level `{...}` objects of the JSON array that
// follows the given key in body, as subslices of body (no copying). The
// daemon's compact rendering guarantees no whitespace and no strings
// containing braces inside the fragments; depth counting keeps this correct
// even if that rendering ever grows nested objects.
func splitArray(body []byte, key string) ([][]byte, error) {
	marker := `"` + key + `":[`
	i := bytes.Index(body, []byte(marker))
	if i < 0 {
		return nil, fmt.Errorf("fleet: no %q array in shard response", key)
	}
	i += len(marker)
	var frags [][]byte
	for i < len(body) && body[i] != ']' {
		if body[i] == ',' {
			i++
			continue
		}
		if body[i] != '{' {
			return nil, fmt.Errorf("fleet: malformed %q array in shard response", key)
		}
		start, depth := i, 0
		for ; i < len(body); i++ {
			switch body[i] {
			case '{':
				depth++
			case '}':
				depth--
			}
			if depth == 0 {
				break
			}
		}
		if i == len(body) {
			return nil, fmt.Errorf("fleet: unterminated object in %q array", key)
		}
		i++
		frags = append(frags, body[start:i])
	}
	if i == len(body) {
		return nil, fmt.Errorf("fleet: unterminated %q array", key)
	}
	return frags, nil
}

// fieldValue returns the raw bytes of a top-level numeric/atomic field value
// inside a compact JSON object or body.
func fieldValue(b []byte, key string) ([]byte, error) {
	marker := `"` + key + `":`
	i := bytes.Index(b, []byte(marker))
	if i < 0 {
		return nil, fmt.Errorf("fleet: no %q field in shard response", key)
	}
	i += len(marker)
	j := i
	for j < len(b) && b[j] != ',' && b[j] != '}' && b[j] != ']' {
		j++
	}
	return b[i:j], nil
}

func fieldInt(b []byte, key string) (int64, error) {
	v, err := fieldValue(b, key)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(v), 10, 64)
}

func fieldUint(b []byte, key string) (uint64, error) {
	v, err := fieldValue(b, key)
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(string(v), 10, 64)
}

func fieldFloat(b []byte, key string) (float64, error) {
	v, err := fieldValue(b, key)
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(v), 64)
}

// rankCursor walks one shard's fragment list in the shard's own rank order.
type rankCursor struct {
	frags [][]byte
	i     int
	line  int64
	score float64
}

func (c *rankCursor) load() error {
	frag := c.frags[c.i]
	var err error
	if c.line, err = fieldInt(frag, "line"); err != nil {
		return err
	}
	c.score, err = fieldFloat(frag, "score")
	return err
}

// rankHeap is a max-heap by (score desc, line asc) — the daemon's ranking
// order, so popping the heap replays exactly the global ranked sequence.
type rankHeap []*rankCursor

func (h rankHeap) Len() int { return len(h) }
func (h rankHeap) Less(a, b int) bool {
	if h[a].score != h[b].score {
		return h[a].score > h[b].score
	}
	return h[a].line < h[b].line
}
func (h rankHeap) Swap(a, b int)     { h[a], h[b] = h[b], h[a] }
func (h *rankHeap) Push(x any)       { *h = append(*h, x.(*rankCursor)) }
func (h *rankHeap) Pop() any         { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h rankHeap) peek() *rankCursor { return h[0] }

// mergeRank streams the top n fragments from the per-shard lists into buf,
// comma-separated. Each shard's list is already its top-n heap export in
// rank order; the k-way merge touches only the fragments it emits plus one
// lookahead per shard — no full-population materialization.
func mergeRank(buf []byte, perShard [][][]byte, n int) ([]byte, int, error) {
	h := make(rankHeap, 0, len(perShard))
	for _, frags := range perShard {
		if len(frags) == 0 {
			continue
		}
		c := &rankCursor{frags: frags}
		if err := c.load(); err != nil {
			return buf, 0, err
		}
		h = append(h, c)
	}
	heap.Init(&h)
	emitted := 0
	for emitted < n && h.Len() > 0 {
		c := h.peek()
		if emitted > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, c.frags[c.i]...)
		emitted++
		c.i++
		if c.i == len(c.frags) {
			heap.Pop(&h)
			continue
		}
		if err := c.load(); err != nil {
			return buf, emitted, err
		}
		heap.Fix(&h, 0)
	}
	return buf, emitted, nil
}
