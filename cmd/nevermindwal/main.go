// Command nevermindwal is the durability directory's offline toolbox:
//
//	nevermindwal inspect <dir>   per-segment and per-checkpoint health report
//	nevermindwal verify <dir>    dry-run recovery; exit non-zero if it fails
//
// inspect walks the directory read-only (safe on a live daemon's WAL) and
// reports every checkpoint and segment, including torn tails and broken
// chains. verify rehearses exactly what nevermindd does at boot — load the
// newest loadable checkpoint, replay the WAL tail into a scratch store — and
// reports the version a restart would recover to, so an operator can check a
// crashed host's directory before pointing a daemon at it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"nevermind/internal/serve"
	"nevermind/internal/wal"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nevermindwal inspect|verify <wal-dir>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	cmd, dir := flag.Arg(0), flag.Arg(1)
	var err error
	switch cmd {
	case "inspect":
		err = inspect(dir)
	case "verify":
		err = verify(dir)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nevermindwal: %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// inspect reports what is on disk without judging it: a damaged directory
// still inspects cleanly, with the damage in the report.
func inspect(dir string) error {
	cks, err := wal.Checkpoints(dir)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoints: %d\n", len(cks))
	for _, ck := range cks {
		fmt.Printf("  %-32s version %-8d %d bytes\n", filepath.Base(ck.Path), ck.Version, ck.Bytes)
	}
	st, err := wal.Inspect(dir)
	if err != nil {
		return err
	}
	fmt.Printf("segments: %d\n", len(st.Segments))
	for _, seg := range st.Segments {
		line := fmt.Sprintf("  %-32s versions %d..%d  %d records  %d bytes",
			filepath.Base(seg.Path), seg.FirstVersion, seg.LastVersion, seg.Records, seg.Bytes)
		if seg.TornBytes > 0 {
			line += fmt.Sprintf("  TORN tail (%d bytes)", seg.TornBytes)
		}
		if seg.Err != "" {
			line += "  ERR " + seg.Err
		}
		fmt.Println(line)
	}
	fmt.Printf("chain: versions %d..%d, %d records\n", st.FirstVersion, st.LastVersion, st.Records)
	return nil
}

// verify rehearses recovery read-only: the same checkpoint fallback and WAL
// tail replay OpenDurability performs, into a throwaway store, with nothing
// repaired or truncated on disk. Success means a daemon restart will serve
// the reported version.
func verify(dir string) error {
	cks, err := wal.Checkpoints(dir)
	if err != nil {
		return err
	}
	store := serve.NewStore(4)
	base := uint64(0)
	for i := len(cks) - 1; i >= 0; i-- {
		v, err := store.LoadCheckpoint(cks[i].Path)
		if err != nil {
			fmt.Printf("verify: checkpoint %s unloadable: %v\n", filepath.Base(cks[i].Path), err)
			continue
		}
		base = v
		fmt.Printf("verify: checkpoint %s restores to version %d\n", filepath.Base(cks[i].Path), v)
		break
	}
	if len(cks) > 0 && base == 0 {
		return fmt.Errorf("%d checkpoints present, none loadable", len(cks))
	}
	ds, err := wal.Inspect(dir)
	if err != nil {
		return err
	}
	replayed := 0
	if ds.LastVersion > base {
		replayed, err = wal.Replay(dir, base, store.ApplyWALRecord)
		if err != nil {
			return fmt.Errorf("replay from version %d: %w (applied %d)", base, err, replayed)
		}
	}
	fmt.Printf("verify: OK — recovers to version %d (checkpoint %d + %d replayed records)\n",
		store.Version(), base, replayed)
	return nil
}
