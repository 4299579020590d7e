// Command shardstore runs a storage node: one key-value store per simulated
// disk behind the shared RPC interface (§2.1 of the paper), with background
// maintenance on a timer: each store's own loop (store.Start) runs its
// Maintain tick (index flush, superblock flush, chunk reclamation, IO
// scheduling, compaction) and one integrity-scrub step per -maintenance
// interval. A small client mode exercises a running node, and a check mode
// runs the §4 conformance harness against this build — the paper's
// "run the checks before every deployment" workflow.
//
// Server:
//
//	shardstore -listen 127.0.0.1:7420 -disks 4
//
// Client:
//
//	shardstore -connect 127.0.0.1:7420 put  shard-1 "hello"
//	shardstore -connect 127.0.0.1:7420 get  shard-1
//	shardstore -connect 127.0.0.1:7420 del  shard-1
//	shardstore -connect 127.0.0.1:7420 mget shard-1 shard-2 shard-3
//	shardstore -connect 127.0.0.1:7420 list
//	shardstore -connect 127.0.0.1:7420 stats
//	shardstore -connect 127.0.0.1:7420 metrics
//	shardstore -connect 127.0.0.1:7420 -traced put shard-1 "hello"
//	shardstore -connect 127.0.0.1:7420 trace
//	shardstore -connect 127.0.0.1:7420 slowlog
//
// Check (exit status 1 if a violation is found):
//
//	shardstore -check -cases 5000 -seed 7 -parallel 0
//
// -parallel picks the worker-pool width (0 = one worker per CPU, 1 =
// sequential). The verdict is deterministic: the same -seed and -cases
// produce the same result — including the failing case index and its
// minimized counterexample — at any -parallel value; only wall-clock time
// changes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on the -pprof listener
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"shardstore/internal/core"
	"shardstore/internal/obs"
	"shardstore/internal/rpc"
	"shardstore/internal/store"
)

func main() {
	listen := flag.String("listen", "", "serve on this address")
	connect := flag.String("connect", "", "client mode: connect to this address")
	disks := flag.Int("disks", 4, "number of simulated disks (server mode)")
	maintenance := flag.Duration("maintenance", 250*time.Millisecond, "background maintenance interval: one maintenance tick and one scrub step per store (0 disables)")
	replicas := flag.Int("replicas", 1, "replicas per chunk within each disk (intra-host redundancy)")
	pprofAddr := flag.String("pprof", "", "serve pprof + /metrics (JSON; ?format=prom for Prometheus) on this address (server mode, opt-in)")
	traceCap := flag.Int("trace", 64, "server mode: retain the last N completed request traces (0 disables tracing)")
	slowThresh := flag.Duration("slow-threshold", 20*time.Millisecond, "server mode: requests at or above this duration land in the slow-op log (0 disables)")
	traced := flag.Bool("traced", false, "client mode: request server-side tracing for this command's requests (trace-id = request id)")
	check := flag.Bool("check", false, "run the conformance check against this build and exit")
	cases := flag.Int("cases", 2000, "check mode: number of random op sequences")
	ops := flag.Int("ops", 40, "check mode: operations per sequence")
	seed := flag.Int64("seed", 1, "check mode: root seed (same seed+cases => same result)")
	parallel := flag.Int("parallel", 0, "check mode: worker-pool width (0 = one per CPU, 1 = sequential)")
	flag.Parse()

	switch {
	case *check:
		runCheck(*cases, *ops, *seed, *parallel)
	case *listen != "":
		runServer(*listen, *disks, *maintenance, *replicas, *pprofAddr, *traceCap, *slowThresh)
	case *connect != "":
		runClient(*connect, *traced, flag.Args())
	default:
		fmt.Fprintln(os.Stderr, "need -listen (server), -connect (client), or -check; see -help")
		os.Exit(2)
	}
}

// runCheck is the node's deployment gate: the full §4/§5 conformance
// harness (crashes, reboots, fault injection, control plane) on the worker
// pool, with the first failure minimized into a replayable counterexample.
func runCheck(cases, ops int, seed int64, parallel int) {
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cases <= 0 {
		cases = 200 // mirror core.Config's default so the banner matches the run
	}
	fmt.Printf("shardstore: conformance check, %d sequences x %d ops, seed %d, %d workers\n",
		cases, ops, seed, workers)
	cfg := core.Config{
		Seed:               seed,
		Cases:              cases,
		OpsPerCase:         ops,
		Bias:               core.DefaultBias(),
		EnableCrashes:      true,
		EnableReboots:      true,
		EnableFailures:     true,
		EnableControlPlane: true,
		Minimize:           true,
		Workers:            parallel,
	}
	start := time.Now()
	res := core.Run(cfg)
	elapsed := time.Since(start)
	fmt.Printf("shardstore: %d sequences, %d operations, %d crash states in %s (%.0f cases/sec)\n",
		res.Cases, res.Ops, res.Crashes, elapsed.Round(time.Millisecond),
		float64(res.Cases)/elapsed.Seconds())
	if res.Failure == nil {
		fmt.Println("shardstore: no violations")
		return
	}
	f := res.Failure
	fmt.Printf("shardstore: VIOLATION at case %d (seed %d): %v\n", f.Case, f.Seed, f.Err)
	fmt.Printf("shardstore: minimized to %d ops (from %d):\n", len(f.Minimized), len(f.Seq))
	for i, op := range f.Minimized {
		fmt.Printf("  %2d. %s\n", i, op)
	}
	fmt.Printf("shardstore: minimized violation: %v\n", f.MinimizedErr)
	if trace := f.FormatTrace(); trace != "" {
		fmt.Printf("shardstore: execution trace of the minimized replay:\n%s", trace)
	}
	os.Exit(1)
}

func runServer(addr string, disks int, maintenance time.Duration, replicas int, pprofAddr string, traceCap int, slowThresh time.Duration) {
	// One node-wide registry on the wall clock: every store, disk, cache, and
	// the rpc layer record into it, so the metrics op (and the optional JSON
	// /metrics endpoint) see the whole node in one snapshot. Request-span
	// tracing attaches here, before stores and server resolve their handles.
	nodeObs := obs.New(obs.NewWallClock())
	if traceCap > 0 {
		nodeObs.WithSpans(traceCap, uint64(slowThresh))
	}
	var stores []*store.Store
	for i := 0; i < disks; i++ {
		cfg := store.Config{Seed: int64(i + 1), Obs: nodeObs}
		// Production-ish geometry: 4 KiB pages, 1 MiB extents, 64 extents.
		cfg.Disk.PageSize = 4096
		cfg.Disk.PagesPerExtent = 256
		cfg.Disk.ExtentCount = 64
		cfg.MaxMemEntries = 128     // auto-flush the memtable
		cfg.AutoFlushThreshold = 64 // auto-flush the superblock
		cfg.Replicas = replicas     // intra-host redundancy for scrub repair
		st, _, err := store.New(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "disk %d: %v\n", i, err)
			os.Exit(1)
		}
		// The store's own loop: Maintain, then one scrub step, per tick.
		// It stops when the store leaves service, and a returned disk's
		// store starts its own.
		st.Start(maintenance)
		stores = append(stores, st)
	}

	srv := rpc.NewServer(stores, nodeObs)
	bound, err := srv.Serve(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("shardstore: serving %d disks on %s\n", disks, bound)

	if pprofAddr != "" {
		// net/http/pprof registered its handlers on the default mux; add the
		// metrics snapshot next to them and serve both on the side listener.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Get("format") == "prom" {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				_, _ = fmt.Fprint(w, obs.FormatPrometheus(nodeObs.Snapshot()))
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(nodeObs.Snapshot())
		})
		go func() {
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("shardstore: pprof + /metrics on http://%s\n", pprofAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
	// Shut down the stores the server serves now, not the ones opened
	// above: a disk that went through remove_disk/return_disk is served by
	// the store its return opened. A disk still removed is skipped.
	for i, kv := range srv.Backends() {
		if err := kv.RemoveFromService(); err != nil && !errors.Is(err, store.ErrOutOfService) {
			fmt.Fprintf(os.Stderr, "disk %d shutdown: %v\n", i, err)
		}
	}
	fmt.Println("shardstore: clean shutdown complete")
}

func runClient(addr string, traced bool, args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "client commands: put <id> <value> | get <id> | del <id> | mget <id>... | mdel <id>... | scan [start [end]] | list | stats | metrics | trace | slowlog | flush <disk> | scrub <disk> | scrub-status <disk>")
		os.Exit(2)
	}
	// Every RPC call takes a context; bound the whole CLI interaction so a
	// wedged server cannot hang the tool (the v2 client survives the expiry —
	// not that a one-shot CLI cares, but it is the idiom).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := rpc.DialContext(ctx, addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dial: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()
	// -traced sets the per-request negotiation flag: a tracing-enabled
	// server records these requests and echoes the flag back.
	c.SetTracing(traced)

	fail := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
	}
	switch args[0] {
	case "put":
		if len(args) != 3 {
			fail(fmt.Errorf("usage: put <id> <value>"))
		}
		fail(c.Put(ctx, args[1], []byte(args[2])))
		fmt.Println("ok")
	case "get":
		if len(args) != 2 {
			fail(fmt.Errorf("usage: get <id>"))
		}
		v, err := c.Get(ctx, args[1])
		fail(err)
		fmt.Printf("%s\n", v)
	case "del":
		if len(args) != 2 {
			fail(fmt.Errorf("usage: del <id>"))
		}
		fail(c.Delete(ctx, args[1]))
		fmt.Println("ok")
	case "mget":
		if len(args) < 2 {
			fail(fmt.Errorf("usage: mget <id>..."))
		}
		res, err := c.MGet(ctx, args[1:])
		fail(err)
		for i, r := range res {
			if r.Err != nil {
				fmt.Printf("%s: error: %v\n", args[1+i], r.Err)
			} else {
				fmt.Printf("%s: %s\n", args[1+i], r.Value)
			}
		}
	case "mdel":
		if len(args) < 2 {
			fail(fmt.Errorf("usage: mdel <id>..."))
		}
		errs, err := c.MDelete(ctx, args[1:])
		fail(err)
		for i, e := range errs {
			if e != nil {
				fmt.Printf("%s: error: %v\n", args[1+i], e)
			} else {
				fmt.Printf("%s: ok\n", args[1+i])
			}
		}
	case "scan":
		if len(args) > 3 {
			fail(fmt.Errorf("usage: scan [start [end]]"))
		}
		var start, end string
		if len(args) > 1 {
			start = args[1]
		}
		if len(args) > 2 {
			end = args[2]
		}
		it := c.Iterator(ctx, start, end, 0)
		for it.Next() {
			e := it.Entry()
			fmt.Printf("%s: %s\n", e.Key, e.Value)
		}
		fail(it.Err())
	case "list":
		ids, err := c.List(ctx)
		fail(err)
		for _, id := range ids {
			fmt.Println(id)
		}
	case "stats":
		s, err := c.Stats(ctx)
		fail(err)
		fmt.Printf("disks=%d shards=%d per-disk=%v in-service=%v scrub-rounds=%v scrub-repaired=%v scrub-lost=%v\n",
			s.Disks, s.Shards, s.ShardsPer, s.InService, s.ScrubRounds, s.ScrubRepaired, s.ScrubLost)
	case "metrics":
		snap, err := c.Metrics(ctx)
		fail(err)
		fmt.Print(obs.FormatSnapshot(*snap, obs.UnitNanos))
	case "trace", "slowlog":
		var d *rpc.TraceDump
		var err error
		if args[0] == "trace" {
			d, err = c.Trace(ctx)
		} else {
			d, err = c.SlowLog(ctx)
		}
		fail(err)
		if args[0] == "slowlog" && d.Threshold > 0 {
			fmt.Printf("slow threshold: %s\n", time.Duration(d.Threshold))
		}
		fmt.Print(obs.FormatTraceDump(d.Traces, d.Truncated, obs.UnitNanos))
	case "flush":
		var d int
		if len(args) == 2 {
			_, _ = fmt.Sscanf(args[1], "%d", &d)
		}
		fail(c.Flush(ctx, d))
		fmt.Println("ok")
	case "scrub", "scrub-status":
		var d int
		if len(args) == 2 {
			_, _ = fmt.Sscanf(args[1], "%d", &d)
		}
		var s *rpc.ScrubStatus
		var err error
		if args[0] == "scrub" {
			s, err = c.Scrub(ctx, d)
		} else {
			s, err = c.ScrubStatus(ctx, d)
		}
		fail(err)
		fmt.Printf("rounds=%d scanned=%d verified=%d bad=%d repaired=%d irreparable=%d lost=%v\n",
			s.Rounds, s.KeysScanned, s.FramesVerified, s.BadReplicas, s.Repaired, s.Irreparable, s.LostShards)
	default:
		fail(fmt.Errorf("unknown command %q", args[0]))
	}
}
