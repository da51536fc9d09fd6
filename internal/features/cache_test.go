package features

import (
	"reflect"
	"testing"

	"nevermind/internal/data"
	"nevermind/internal/ml"
	"nevermind/internal/sim"
)

func cacheDataset(t *testing.T) *data.Dataset {
	t.Helper()
	res, err := sim.Run(sim.DefaultConfig(400, 5))
	if err != nil {
		t.Fatal(err)
	}
	return res.Dataset
}

// TestCacheLRUBoundAndStats pins the cache mechanics: the entry count never
// exceeds the bound, eviction is least-recently-used, and the counters track
// lookups.
func TestCacheLRUBoundAndStats(t *testing.T) {
	c := NewCache(2)
	c.PutBinned("a", &ml.BinnedMatrix{N: 1})
	c.PutBinned("b", &ml.BinnedMatrix{N: 2})
	if _, ok := c.GetBinned("a"); !ok {
		t.Fatal("entry a missing before bound reached")
	}
	// a was just touched, so inserting c must evict b.
	c.PutBinned("c", &ml.BinnedMatrix{N: 3})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.GetBinned("b"); ok {
		t.Fatal("LRU evicted the wrong entry: b survived")
	}
	if bm, ok := c.GetBinned("a"); !ok || bm.N != 1 {
		t.Fatal("recently used entry a evicted")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("Stats = (%d, %d), want (2, 1)", hits, misses)
	}

	// A nil cache is inert but safe.
	var nc *Cache
	if _, ok := nc.GetBinned("x"); ok {
		t.Fatal("nil cache returned a hit")
	}
	nc.PutBinned("x", nil)
	if h, m := nc.Stats(); h != 0 || m != 0 || nc.Len() != 0 {
		t.Fatal("nil cache tracked state")
	}
}

// TestCacheEvictionCounter: every insertion beyond the bound evicts exactly
// one entry — the oldest — so ten insertions into a bound of three leave
// the last three and count seven misses for the rest.
func TestCacheEvictionCounter(t *testing.T) {
	c := NewCache(3)
	for i := 0; i < 10; i++ {
		c.PutBinned(string(rune('a'+i)), &ml.BinnedMatrix{N: i})
	}
	if c.Len() != 3 {
		t.Fatalf("entries = %d, want the bound 3", c.Len())
	}
	for i := 0; i < 10; i++ {
		bm, ok := c.GetBinned(string(rune('a' + i)))
		if ok != (i >= 7) || (ok && bm.N != i) {
			t.Fatalf("entry %d: present=%v after ten insertions into a bound of 3", i, ok)
		}
	}
	if hits, misses := c.Stats(); hits != 3 || misses != 7 {
		t.Fatalf("Stats = (%d, %d), want (3, 7): seven evictions", hits, misses)
	}
}

// TestExamplesKeySensitivity: the fingerprint must distinguish different
// lines, weeks, orders and lengths — anything that changes encoding.
func TestExamplesKeySensitivity(t *testing.T) {
	base := []Example{{Line: 1, Week: 30}, {Line: 2, Week: 31}}
	same := []Example{{Line: 1, Week: 30}, {Line: 2, Week: 31}}
	if ExamplesKey(base) != ExamplesKey(same) {
		t.Fatal("identical example lists hash differently")
	}
	variants := [][]Example{
		{{Line: 2, Week: 30}, {Line: 2, Week: 31}},
		{{Line: 1, Week: 31}, {Line: 2, Week: 31}},
		{{Line: 2, Week: 31}, {Line: 1, Week: 30}},
		{{Line: 1, Week: 30}},
		{},
	}
	for vi, v := range variants {
		if ExamplesKey(v) == ExamplesKey(base) {
			t.Fatalf("variant %d collides with base", vi)
		}
	}
}

// TestEncodeCachedMatchesEncode: cached encoding must be byte-for-byte the
// plain Encode result, for both the base and quadratic configurations, on
// hit and miss alike — and quadratic callers must reuse the cached base
// (one base encode, two results).
func TestEncodeCachedMatchesEncode(t *testing.T) {
	ds := cacheDataset(t)
	ix := data.NewTicketIndex(ds)
	examples := ExamplesForWeeks(ds, []int{30, 31})

	for _, quad := range []bool{false, true} {
		cfg := Config{Quadratic: quad}
		want, err := Encode(ds, ix, examples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCache(0)
		first, err := EncodeCached(c, ds, ix, examples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, want) {
			t.Fatalf("quad=%v: cached miss result differs from Encode", quad)
		}
		second, err := EncodeCached(c, ds, ix, examples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if second != first {
			t.Fatalf("quad=%v: cache hit returned a different object", quad)
		}
		if hits, _ := c.Stats(); hits == 0 {
			t.Fatalf("quad=%v: second encode did not hit", quad)
		}
	}

	// Base-then-quadratic shares the base encode: the quadratic call's base
	// lookup must hit the entry the plain call stored.
	c := NewCache(0)
	baseEnc, err := EncodeCached(c, ds, ix, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := c.Stats()
	quadEnc, err := EncodeCached(c, ds, ix, examples, Config{Quadratic: true})
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := c.Stats()
	if h1 <= h0 {
		t.Fatal("quadratic encode did not reuse the cached base")
	}
	if len(quadEnc.Cols) <= len(baseEnc.Cols) {
		t.Fatal("quadratic encode added no columns")
	}
	// Sharing must not mutate the cached base entry.
	again, err := EncodeCached(c, ds, ix, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if again != baseEnc || len(again.Cols) != len(baseEnc.Cols) {
		t.Fatal("quadratic extension mutated the cached base encode")
	}
	for i := range baseEnc.Cols {
		if &quadEnc.Cols[i].Values[0] != &baseEnc.Cols[i].Values[0] {
			t.Fatalf("quadratic encode copied base column %d instead of sharing it", i)
		}
	}
}

// TestEncodeCachedNilCache: a nil cache must degrade to plain Encode.
func TestEncodeCachedNilCache(t *testing.T) {
	ds := cacheDataset(t)
	ix := data.NewTicketIndex(ds)
	examples := ExamplesForWeeks(ds, []int{30})
	want, err := Encode(ds, ix, examples, Config{Quadratic: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeCached(nil, ds, ix, examples, Config{Quadratic: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil-cache EncodeCached differs from Encode")
	}
}
