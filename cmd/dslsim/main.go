// Command dslsim generates a synthetic year of DSL operational data — the
// four information sources of §3.3 (weekly line tests, customer tickets,
// disposition notes, subscriber profiles) plus the DSLAM outage log — and
// writes it to disk for the other tools.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/sim"
)

func main() {
	var (
		lines = flag.Int("lines", 20000, "subscriber population")
		seed  = flag.Uint64("seed", 42, "simulation seed")
		out   = flag.String("out", "dsl-year.gob.gz", "dataset output path (gzipped gob)")
		csv   = flag.String("csv", "", "optional directory for CSV exports")
	)
	flag.Parse()

	t0 := time.Now()
	res, err := sim.Run(sim.DefaultConfig(*lines, *seed))
	if err != nil {
		fatal(err)
	}
	ds := res.Dataset
	edge := 0
	for _, t := range ds.Tickets {
		if t.Category == data.CatCustomerEdge {
			edge++
		}
	}
	fmt.Fprintf(os.Stderr, "simulated %d lines: %d measurements, %d tickets (%d customer-edge), %d dispatches, %d outages in %v\n",
		ds.NumLines, data.Weeks*ds.NumLines, len(ds.Tickets), edge, len(ds.Notes), len(ds.Outages),
		time.Since(t0).Round(time.Millisecond))

	if err := ds.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			fatal(err)
		}
		mf, err := os.Create(*csv + "/measurements.csv")
		if err != nil {
			fatal(err)
		}
		if err := ds.WriteMeasurementsCSV(mf); err != nil {
			fatal(err)
		}
		if err := mf.Close(); err != nil {
			fatal(err)
		}
		tf, err := os.Create(*csv + "/tickets.csv")
		if err != nil {
			fatal(err)
		}
		if err := ds.WriteTicketsCSV(tf); err != nil {
			fatal(err)
		}
		if err := tf.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s/measurements.csv and %s/tickets.csv\n", *csv, *csv)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dslsim:", err)
	os.Exit(1)
}
