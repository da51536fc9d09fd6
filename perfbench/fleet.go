package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// env is what every workload needs: where to build and write, the
// binaries, the seed and the processes it owns.
type env struct {
	workload string
	work     string // this run's scratch directory under .bench_build
	daemon   string // nevermindd binary
	gateway  string // nevermindgw binary
	models   modelPaths
	seed     uint64
	seconds  int
	procs    *procSet
	hc       *http.Client // control-plane client: preload, scrapes, probes
	steal    hostCPU      // host CPU accounting over the measured windows
}

const listenTimeout = 120 * time.Second

// daemonArgs are the flags every nevermindd of a run shares: the served
// population and seed it simulates its dataset from, the seed's model
// files, no built-in pipeline (the benchmark is the feed), and a WAL.
func (e *env) daemonArgs(lines int, walDir string, extra ...string) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-lines", strconv.Itoa(lines),
		"-seed", strconv.FormatUint(e.seed, 10),
		"-model", e.models.pred,
		"-locator", e.models.loc,
		"-pipeline=false",
		"-wal.dir", walDir,
		"-wal.fsync=interval",
	}
	return append(args, extra...)
}

// fleet is the desk topology: nevermindgw over two WAL-backed shards.
type deskFleet struct {
	dir       string
	shards    []*proc
	shardURLs []string
	gw        *proc // nil while an in-process gateway fronts the shards
	gwURL     string
}

var shardNames = []string{"s0", "s1"}

// startShards launches both shards concurrently and waits for them to
// listen.
func (e *env) startShards(lines int) (*deskFleet, error) {
	dir, err := os.MkdirTemp(e.work, "fleet-")
	if err != nil {
		return nil, err
	}
	fl := &deskFleet{dir: dir, shards: make([]*proc, len(shardNames)), shardURLs: make([]string, len(shardNames))}
	errs := make([]error, len(shardNames))
	done := make(chan int)
	for i, name := range shardNames {
		go func(i int, name string) {
			args := e.daemonArgs(lines, filepath.Join(dir, name),
				"-fleet.id", name, "-fleet.peers", "s0,s1")
			fl.shards[i], fl.shardURLs[i], errs[i] = e.procs.start("shard "+name, e.daemon, listenTimeout, args...)
			done <- i
		}(i, name)
	}
	for range shardNames {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			fl.kill(e)
			return nil, err
		}
	}
	return fl, nil
}

// startGateway launches nevermindgw with its default settings over the
// shards and waits until its health probe sees every shard up.
func (e *env) startGateway(fl *deskFleet) error {
	args := []string{"-addr", "127.0.0.1:0"}
	for i, name := range shardNames {
		args = append(args, "-shard", name+"="+fl.shardURLs[i])
	}
	gw, url, err := e.procs.start("gateway", e.gateway, listenTimeout, args...)
	if err != nil {
		return err
	}
	fl.gw, fl.gwURL = gw, url
	return e.waitHealthy(url)
}

// waitHealthy polls /healthz until it answers status ok.
func (e *env) waitHealthy(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := e.hc.Get(base + "/healthz")
		if err == nil {
			var h struct{ Status string }
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && h.Status == "ok" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never reported healthy (last error %v)", base, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// processes lists the fleet's server processes.
func (fl *deskFleet) processes() []*proc {
	ps := append([]*proc(nil), fl.shards...)
	if fl.gw != nil {
		ps = append(ps, fl.gw)
	}
	return ps
}

// kill ends every process of the fleet and removes its WAL directories.
func (fl *deskFleet) kill(e *env) {
	ps := fl.processes()
	for _, p := range ps {
		if p != nil {
			p.kill()
		}
	}
	e.procs.forget(ps...)
	os.RemoveAll(fl.dir)
}

// send issues reqs in order over one client and fails on any non-2xx.
func (e *env) send(ctx context.Context, base string, reqs []request) error {
	for i := range reqs {
		status, body, err := do(ctx, e.hc, base, &reqs[i], nil)
		if err != nil {
			return fmt.Errorf("%s %s: %w", reqs[i].method(), reqs[i].path, err)
		}
		if status/100 != 2 {
			return fmt.Errorf("%s %s: %d %.300s", reqs[i].method(), reqs[i].path, status, body)
		}
	}
	return nil
}

// ingestAll posts ingest bodies over maxConns connections. Every body holds
// distinct (line, week) cells and tickets deduplicate, so the order they
// land in does not change the store they build.
func (e *env) ingestAll(ctx context.Context, base string, bodies [][]byte) error {
	var next atomic.Int64
	errs := make([]error, maxConns)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				r := request{class: "ingest", path: "/v1/ingest", body: bodies[i]}
				status, body, err := do(ctx, hc, base, &r, nil)
				if err == nil && status/100 != 2 {
					err = fmt.Errorf("%d %.300s", status, body)
				}
				if err != nil {
					errs[w] = fmt.Errorf("ingest body %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkProbes compares every probe answered through base with the
// reference's answer.
func (e *env) checkProbes(ctx context.Context, base string, probes []request, want []answer) error {
	for i := range probes {
		p := &probes[i]
		status, got, err := do(ctx, e.hc, base, p, nil)
		if err != nil {
			return fmt.Errorf("probe %s %s: %w", p.method(), p.path, err)
		}
		if status != want[i].status || !sameAnswer(got, want[i].body) {
			return mismatch(p, status, got, want[i].status, want[i].body)
		}
	}
	return nil
}

// settle collects the benchmark's own garbage and returns it to the OS, so
// the generator's collector stays quiet through a measured window.
func settle() { debug.FreeOSMemory() }
