package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"shardstore/internal/obs"
	"shardstore/internal/store"
)

// Op classes whose latency is sampled.
type class uint8

const (
	clsGet class = iota
	clsPut
	clsDelete
	clsScan1
	clsScan16
	clsScan256
	clsCase
	numClasses
)

// workload is one row of the README's workload table. rate is the number of
// foreground ops that make one nominal second on the reference 2-vCPU box:
// a run's length is a fixed op count, rate × seconds, never a deadline, so
// that counts repeat and both sides of a comparison do the same work.
type workload struct {
	name     string
	rate     int
	keys     int
	valSize  int
	cacheCap int
	primary  []class // the op classes op_p50_us / op_p95_us pool
	scans    bool    // the mix has scans, so the scan probes are worth their time
	run      func(*pass) error
}

var workloads = []*workload{
	{name: "read_zipf", rate: 75000, keys: 8000, valSize: 4000, cacheCap: 1024, primary: []class{clsGet}, run: runReadZipf},
	{name: "write_durable", rate: 7000, keys: 4000, valSize: 4000, cacheCap: 256, primary: []class{clsPut}, run: runWriteDurable},
	{name: "scan_mixed", rate: 750, keys: 8000, valSize: 512, cacheCap: 1024, primary: []class{clsScan1, clsScan16, clsScan256}, scans: true, run: runScanMixed},
	{name: "rpc_pipeline", rate: 27000, keys: 4000, valSize: 1024, cacheCap: 4096, primary: []class{clsGet}, scans: true, run: runRPCPipeline},
	{name: "conformance", rate: 750, primary: []class{clsCase}, run: runConformance},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// latStat is what survives of a class's samples once the timed phase ends.
type latStat struct {
	n             int
	p50, p95, p99 float64 // µs
}

// meanStat is a mean over n observations.
type meanStat struct {
	n    int64
	mean float64
}

func summarize(samples ...[]uint32) latStat {
	var all []uint32
	for _, s := range samples {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return latStat{}
	}
	slices.Sort(all)
	q := func(p float64) float64 { return float64(all[int(p*float64(len(all)-1))]) / 1e3 }
	return latStat{n: len(all), p50: q(0.50), p95: q(0.95), p99: q(0.99)}
}

// pass is one run of one workload: its inputs, then everything measured.
type pass struct {
	w      *workload
	seed   int64
	ops    int // timed foreground ops
	warm   int // untimed warm-up ops that precede them
	setups int // how many times set-up runs (the last one is measured on)

	// rec is nil in an untraced pass. A traced pass also puts the nodes on a
	// wall-clock registry with the request tracer; the recorder itself is on
	// for the timed phase only.
	rec    *recorder
	timing bool // false through load and warm-up: nothing is sampled

	// Filled by the workload.
	stores      []*store.Store // end state, for the probes
	setup       []float64      // seconds, one per set-up
	wall        time.Duration  // timed phase, ticks included
	attempted   int64
	failed      int64
	violations  int64
	firstBad    []string
	samples     [numClasses][]uint32
	lat         [numClasses]latStat
	scanAll     latStat
	primary     latStat
	d           delta
	mem         memDelta
	heapLive    uint64
	gets, puts  int64 // timed foreground gets / puts
	userBytes   int64 // timed bytes put
	liveBytes   int64
	usedBytes   int64
	m           *maint
	caseOps     int64 // harness ops and crashes over the timed cases
	crashes     int64
	detectMs    float64 // traced conformance pass: the seeded-fault hunt
	detectCases int64
	probeScale  float64             // shrinks the probe loops under -quick
	pr          probes              // traced pass only
	rpcStages   map[string]meanStat // server-side stage means (µs), traced rpc pass
}

func (p *pass) observe(c class, d time.Duration) {
	if p.timing {
		p.samples[c] = append(p.samples[c], uint32(d))
	}
}

// violate records an oracle violation: the program returned a wrong answer.
func (p *pass) violate(format string, args ...any) {
	p.violations++
	if len(p.firstBad) < 5 {
		p.firstBad = append(p.firstBad, fmt.Sprintf(format, args...))
	}
}

// fail records a foreground op the program refused or failed. Outside the
// timed phase (load, warm-up, the final read-back) nothing may fail, so there
// it is a violation.
func (p *pass) fail(what string, err error) {
	if !p.timing {
		p.violate("%s failed outside the timed phase: %v", what, err)
		return
	}
	p.failed++
	if len(p.firstBad) < 5 {
		p.firstBad = append(p.firstBad, fmt.Sprintf("%s failed: %v", what, err))
	}
}

func (p *pass) traced() bool { return p.rec != nil }

// nodeObs is the registry handed to a node of this pass.
func (p *pass) nodeObs() *obs.Obs {
	if p.traced() {
		return tracedObs()
	}
	return nil
}

// setUp runs build p.setups times, timing each, and leaves the last one's
// state in place; teardown undoes a build that will not be measured on.
func (p *pass) setUp(build func() error, teardown func()) error {
	for i := 0; i < p.setups; i++ {
		if i > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
	}
	return nil
}

// timed brackets the timed phase: switches sampling and spans on, takes the
// counter and runtime deltas, and reduces the samples before measuring the
// live heap so that the driver's own buffers are not counted as the node's.
func (p *pass) timed(snap func() obs.Snapshot, body func()) {
	if p.rec != nil {
		p.rec.on.Store(true)
	}
	for c := range p.samples {
		p.samples[c] = make([]uint32, 0, p.ops/8)
	}
	for _, c := range p.w.primary {
		p.samples[c] = make([]uint32, 0, p.ops)
	}
	if p.m != nil {
		p.m.busy, p.m.ticks, p.m.sweeps, p.m.writableMin = 0, 0, 0, 1<<30
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.d.before = snap()
	p.timing = true
	t0 := time.Now()

	body()

	p.wall = time.Since(t0)
	p.timing = false
	p.d.after = snap()
	p.mem = memSince(&ms)
	if p.rec != nil {
		p.rec.on.Store(false)
	}
	for c := range p.samples {
		p.lat[c] = summarize(p.samples[c])
	}
	p.scanAll = summarize(p.samples[clsScan1], p.samples[clsScan16], p.samples[clsScan256])
	var prim [][]uint32
	for _, c := range p.w.primary {
		prim = append(prim, p.samples[c])
	}
	p.primary = summarize(prim...)
	p.samples = [numClasses][]uint32{}
	p.heapLive = heapLive()
	// The simulator's durable image stands for the device, not for memory the
	// node uses; it is allocated whole when the disk is made.
	for _, st := range p.stores {
		p.heapLive -= uint64(st.Config().Disk.ExtentCount * st.Config().Disk.ExtentBytes())
	}
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
