package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// series is one /metrics scrape: Prometheus text exposition values keyed by
// the full series name including labels, e.g.
// `nevermind_http_requests_total{route="score"}`.
type series map[string]float64

func scrape(hc *http.Client, base string) (series, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	out := make(series)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %q: %w", base, line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeAll scrapes every base URL.
func scrapeAll(hc *http.Client, bases []string) ([]series, error) {
	out := make([]series, len(bases))
	for i, b := range bases {
		s, err := scrape(hc, b)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// delta sums after[key]-before[key] over every scraped process.
func delta(before, after []series, key string) float64 {
	d := 0.0
	for i := range after {
		d += after[i][key] - before[i][key]
	}
	return d
}

// histMean returns the mean of a histogram's observations between two
// scrape sets, in seconds, and the observation count. labels is the
// label set without braces ("" for an unlabelled histogram).
func histMean(before, after []series, name, labels string) (float64, float64) {
	sfx := ""
	if labels != "" {
		sfx = "{" + labels + "}"
	}
	sum := delta(before, after, name+"_sum"+sfx)
	n := delta(before, after, name+"_count"+sfx)
	return ratio(sum, n), n
}
