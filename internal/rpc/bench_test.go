package rpc

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchSeed loads n small shards so benchmark reads hit real entries.
func benchSeed(tb testing.TB, c *Client, n int) {
	tb.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := c.Put(ctx, benchKey(i), []byte("benchmark value payload")); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchKey(i int) string { return fmt.Sprintf("bench-%03d", i%64) }

// BenchmarkRPCPipelined measures the v2 client with a fixed window of
// in-flight requests on ONE connection. depth=1 is the lock-step benchmark
// (one wire latency per op); depth 8 and 64 show the pipelining win
// (amortizes wire latency across the window).
func BenchmarkRPCPipelined(b *testing.B) {
	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			ctx := context.Background()
			_, c := newTestServer(b, 2)
			benchSeed(b, c, 64)
			b.ResetTimer()
			window := make([]*Call, 0, depth)
			for i := 0; i < b.N; i++ {
				window = append(window, c.GoGet(benchKey(i)))
				if len(window) == depth {
					for _, call := range window {
						if _, err := call.Wait(ctx); err != nil {
							b.Fatal(err)
						}
					}
					window = window[:0]
				}
			}
			for _, call := range window {
				if _, err := call.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkRPCSharedClient8 is the acceptance shape: ONE v2 client shared by
// 8 goroutines, each keeping a depth-64 pipeline in flight.
func BenchmarkRPCSharedClient8(b *testing.B) {
	ctx := context.Background()
	_, c := newTestServer(b, 2)
	benchSeed(b, c, 64)
	const goroutines, depth = 8, 64
	b.ResetTimer()
	perG := b.N / goroutines
	if perG == 0 {
		perG = 1
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			window := make([]*Call, 0, depth)
			drain := func() {
				for _, call := range window {
					if _, err := call.Wait(ctx); err != nil {
						b.Error(err)
						return
					}
				}
				window = window[:0]
			}
			for i := 0; i < perG; i++ {
				window = append(window, c.GoGet(benchKey(i)))
				if len(window) == depth {
					drain()
				}
			}
			drain()
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(perG*goroutines)/b.Elapsed().Seconds(), "ops/s")
}

// opsPerSec runs fn, which performs ops operations, and returns the rate
// in operations per wall-clock second.
func opsPerSec(ops int, fn func()) float64 {
	start := time.Now() //shardlint:allow determinism throughput measurement, not a replayed path
	fn()
	return float64(ops) / time.Since(start).Seconds() //shardlint:allow determinism throughput measurement, not a replayed path
}

// TestPipelineThroughputGain asks whether pipelining happened and whether
// it paid, v2 against v2 on one server. Baseline: a client on its own
// connection driven lock-step (one Get, wait, next). Pipelined: one client
// shared by 8 goroutines, each keeping 64 calls in flight.
//
// The proof that the two phases differ is a count the server keeps itself:
// rpc.pipeline_depth, the number of requests read off a connection and not
// yet answered, is 1 for every request of the lock-step phase and reaches
// at least connWorkers once the shared client runs. The wall-clock floor
// of 2.5x sits under everything measured on a 2-vCPU box (4.1x to 40x
// over 45 runs, median 10x: the lock-step rate swings 3x from run to run
// and the ratio with it) with room for a loaded runner.
func TestPipelineThroughputGain(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the pipelined/lock-step ratio; see race_on_test.go")
	}
	ctx := context.Background()
	srv, c := newWideServer(t, 4)
	benchSeed(t, c, 64)

	lockstep, err := Dial(srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer lockstep.Close()
	const lockstepOps = 2048
	before := srv.depth.Snapshot()
	lockstepRate := opsPerSec(lockstepOps, func() {
		for i := 0; i < lockstepOps; i++ {
			if _, err := lockstep.Get(ctx, benchKey(i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Every request of the phase observed depth 1: the depths sum to the count.
	after := srv.depth.Snapshot()
	if n, sum := after.Count-before.Count, after.Sum-before.Sum; n != lockstepOps || sum != lockstepOps {
		t.Fatalf("lock-step phase: rpc.pipeline_depth summed to %d over %d requests, want %d over %d (depth 1 throughout)",
			sum, n, lockstepOps, lockstepOps)
	}

	const goroutines, depth, perG = 8, 64, 1024
	errs := make(chan error, goroutines)
	pipelinedRate := opsPerSec(goroutines*perG, func() {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				window := make([]*Call, 0, depth)
				drain := func() error {
					for _, call := range window {
						if _, err := call.Wait(ctx); err != nil {
							return err
						}
					}
					window = window[:0]
					return nil
				}
				for i := 0; i < perG; i++ {
					window = append(window, c.GoGet(benchKey(i)))
					if len(window) == depth {
						if err := drain(); err != nil {
							errs <- err
							return
						}
					}
				}
				if err := drain(); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
	})
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	d := srv.depth.Snapshot()

	t.Logf("v2 lock-step: %.0f ops/s at server-side depth 1; v2 shared 8×depth64: %.0f ops/s (%.1fx) at depth up to %d",
		lockstepRate, pipelinedRate, pipelinedRate/lockstepRate, d.Max)
	if d.Max < connWorkers {
		t.Fatalf("pipelined phase: rpc.pipeline_depth max=%d, want >= %d", d.Max, connWorkers)
	}
	if pipelinedRate < 2.5*lockstepRate {
		t.Fatalf("pipelined throughput %.0f ops/s is under 2.5x the lock-step %.0f ops/s", pipelinedRate, lockstepRate)
	}
}
