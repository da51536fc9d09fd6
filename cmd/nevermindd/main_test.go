package main

import "testing"

// TestNeedsDataset pins when the daemon loads or simulates its dataset: only
// when predictor training, locator training or the pipeline feed reads it.
func TestNeedsDataset(t *testing.T) {
	for _, c := range []struct {
		name           string
		model, locator string
		trainLoc, pipe bool
		want           bool
	}{
		{name: "train predictor", want: true},
		{name: "train predictor, no pipeline", locator: "loc.gob.gz", want: true},
		{name: "loaded models, pipeline", model: "pred.gob.gz", locator: "loc.gob.gz", pipe: true, want: true},
		{name: "loaded predictor, train locator", model: "pred.gob.gz", trainLoc: true, want: true},
		{name: "loaded models, fleet shard", model: "pred.gob.gz", locator: "loc.gob.gz", want: false},
		{name: "loaded predictor, no locator", model: "pred.gob.gz", want: false},
		{name: "loaded locator beats -train-locator", model: "pred.gob.gz", locator: "loc.gob.gz", trainLoc: true, want: false},
	} {
		if got := needsDataset(c.model, c.locator, c.trainLoc, c.pipe); got != c.want {
			t.Errorf("%s: needsDataset = %v, want %v", c.name, got, c.want)
		}
	}
}
