package features

import (
	"fmt"
	"sync"

	"nevermind/internal/data"
	"nevermind/internal/ml"
)

// Cache memoizes the expensive stages of the dsl→features→quantize pipeline
// across experiments: base feature encodes, their quadratic extensions, and
// fully binned design matrices. Every eval figure walks the same weeks of
// the same dataset, so fig4/fig6–fig9/table5/trend otherwise redo identical
// feature extraction many times over.
//
// A cache serves ONE immutable dataset: keys fingerprint the examples and
// the consumer's configuration, never the data, so a cache must not outlive
// the dataset it was filled from or be shared across datasets (the offline
// eval.Context is the one owner; the serving daemon keeps none). Encoded
// matrices are keyed by (examples hash, history window) — note the hash
// covers the FULL example list, not per-week pieces, because the encoder's
// missing-line fallback vector averages over the examples' whole week-set
// (per-week concatenation would change results). Binned matrices
// additionally key on the consumer's column schema and the quantizer's
// content fingerprint (ml.Quantizer.Fingerprint — pointer identity would be
// unsafe across retrains).
//
// Entries are bounded by an LRU policy (default 24). Cached values are
// shared, never copied: all consumers treat encoded/binned matrices as
// immutable after construction. A nil *Cache is valid and disables caching.
type Cache struct {
	mu     sync.Mutex
	max    int
	vals   map[string]any
	order  []string // least recently used first
	hits   int
	misses int
}

// DefaultCacheEntries bounds a cache built with NewCache(0). A full
// experiment sweep touches roughly a dozen distinct matrices; 24 leaves
// headroom without holding more than a few hundred MB at paper scale.
const DefaultCacheEntries = 24

// NewCache returns a cache bounded to maxEntries (0 or negative = default).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &Cache{max: maxEntries, vals: make(map[string]any)}
}

// Stats returns the lookup counters (a lookup on a nil cache counts
// nothing). Used by tests to prove experiments actually share entries.
func (c *Cache) Stats() (hits, misses int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vals)
}

func (c *Cache) get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vals[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.touch(key)
	return v, true
}

func (c *Cache) put(key string, v any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.vals[key]; ok {
		c.vals[key] = v
		c.touch(key)
		return
	}
	c.vals[key] = v
	c.order = append(c.order, key)
	for len(c.vals) > c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.vals, oldest)
	}
}

// touch moves key to the most-recent end; callers hold c.mu. Linear scan:
// the cache holds tens of entries at most.
func (c *Cache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = key
			return
		}
	}
}

// GetBinned looks up a quantized design matrix.
func (c *Cache) GetBinned(key string) (*ml.BinnedMatrix, bool) {
	v, ok := c.get(key)
	if !ok {
		return nil, false
	}
	bm, ok := v.(*ml.BinnedMatrix)
	return bm, ok
}

// PutBinned stores a quantized design matrix.
func (c *Cache) PutBinned(key string, bm *ml.BinnedMatrix) { c.put(key, bm) }

// ExamplesKey fingerprints an example list (FNV-1a over the (line, week)
// sequence) for cache keying. Order-sensitive, as encoding is.
func ExamplesKey(examples []Example) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	for _, ex := range examples {
		mix(uint64(ex.Line))
		mix(uint64(uint32(ex.Week)))
	}
	return h
}

// EncodeCached is Encode with memoization: the base encode is cached once
// per (examples, history window) and the quadratic extension layered on top
// under its own key, so quadratic and non-quadratic consumers of the same
// examples share the base work. A nil cache degrades to plain Encode.
// Returned matrices are shared — treat them as immutable.
func EncodeCached(c *Cache, ds *data.Dataset, ix *data.TicketIndex, examples []Example, cfg Config) (*Encoded, error) {
	if c == nil {
		return Encode(ds, ix, examples, cfg)
	}
	cfg = cfg.defaults()
	baseKey := fmt.Sprintf("enc|%016x|h%d", ExamplesKey(examples), cfg.HistoryWeeks)
	if !cfg.Quadratic {
		if v, ok := c.get(baseKey); ok {
			return v.(*Encoded), nil
		}
		enc, err := encodeBase(ds, ix, examples, cfg, allBase, nil, 1)
		if err != nil {
			return nil, err
		}
		c.put(baseKey, enc)
		return enc, nil
	}
	quadKey := baseKey + "|quad"
	if v, ok := c.get(quadKey); ok {
		return v.(*Encoded), nil
	}
	var base *Encoded
	if v, ok := c.get(baseKey); ok {
		base = v.(*Encoded)
	} else {
		enc, err := encodeBase(ds, ix, examples, cfg, allBase, nil, 1)
		if err != nil {
			return nil, err
		}
		c.put(baseKey, enc)
		base = enc
	}
	enc := AllColumns(cfg).derive(base)
	c.put(quadKey, enc)
	return enc, nil
}
