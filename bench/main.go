// Command bench is the repository's one benchmark: five workloads over the
// storage node and its validation stack, measured from outside through the
// layers' public functions and registries. README.md explains the workloads,
// the metrics and how they are expected to move; BENCHMARK.json, at the root
// of the repository, declares them.
//
//	go run -C bench . -workload read_zipf -seed 1 -seconds 8 -trace 0
//	go run -C bench . -trace 1            # every workload, per-layer metrics
//	go run -C bench . -selfcheck 5        # run-to-run spread of every end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// options are the command line. None of them changes what a workload does:
// they pick the workload, its seed, its length and what is reported.
type options struct {
	seed      int64
	workload  string
	seconds   int
	trace     int
	quick     bool
	selfcheck int
	out       string
}

func main() {
	var o options
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of them)")
	flag.IntVar(&o.seconds, "seconds", 8, "nominal length of the timed phase; sets the op count, not a deadline")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: untraced and traced pass, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "1% of the op counts, one set-up (a smoke run, not a measurement)")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run the untraced pass N times and print the spread of each end-to-end metric")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for the traced pass's span files")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the selected workloads and reports whether every oracle held.
func run(o options, w io.Writer) (bool, error) {
	// The load generator and the node share this process; two Ps is the
	// reference box, and anything beyond two goroutines only ever waits on the
	// commit barrier or a socket.
	runtime.GOMAXPROCS(2)
	selected := workloads
	if o.workload != "" {
		wl := findWorkload(o.workload)
		if wl == nil {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workload{wl}
	}
	printHeader(w, o, selected)
	if o.selfcheck > 0 {
		return selfcheck(o, selected, w)
	}
	allOK := true
	for _, wl := range selected {
		res, err := runWorkload(o, wl, w)
		if err != nil {
			return false, fmt.Errorf("%s: %w", wl.name, err)
		}
		allOK = allOK && res.Correct
		line, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	return allOK, nil
}

func printHeader(w io.Writer, o options, selected []*workload) {
	fmt.Fprintf(w, "# shardstore bench: seed=%d seconds=%d quick=%v trace=%d GOMAXPROCS=%d nproc=%d %s\n",
		o.seed, o.seconds, o.quick, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(w, "# device model: read=%gus write=%gus sync=%gus per_KiB=%gus\n", devReadUs, devWriteUs, devSyncUs, devKiBUs)
	var counts []string
	for _, wl := range selected {
		counts = append(counts, fmt.Sprintf("%s=%d", wl.name, o.opCount(wl)))
	}
	fmt.Fprintf(w, "# timed ops (warm-up is a tenth more, before them): %s\n", strings.Join(counts, " "))
}

// opCount is the length of the timed phase: a whole number of ops per writer.
func (o options) opCount(wl *workload) int {
	n := wl.rate * o.seconds
	if o.quick {
		n /= 100
	}
	return max(n/durableWriters, 8) * durableWriters
}

func (o options) newPass(wl *workload, traced bool, setups int) *pass {
	p := &pass{w: wl, seed: o.seed, ops: o.opCount(wl), setups: setups}
	p.warm = p.ops / 10 / durableWriters * durableWriters
	if traced {
		p.rec = newRecorder(3 * p.ops)
		p.probeScale = 1
		if o.quick {
			p.probeScale = 0.01
		}
	}
	return p
}

// result is the last line of a workload's output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload in the mode o selects and prints its metrics.
func runWorkload(o options, wl *workload, w io.Writer) (result, error) {
	m, t, err := measure(o, wl)
	if err != nil {
		return result{}, err
	}
	if t != nil {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return result{}, err
		}
		if err := t.rec.writeJSON(filepath.Join(o.out, "spans_"+wl.name+".json"), wl.name); err != nil {
			return result{}, err
		}
	}
	return report(o, m, t, w)
}

// measure makes the untraced pass and, under -trace 1, the traced pass with
// the same seed and op counts (nil otherwise).
func measure(o options, wl *workload) (m, t *pass, err error) {
	setups := 3
	if o.quick || o.trace == 1 {
		setups = 1
	}
	m = o.newPass(wl, false, setups)
	if err := wl.run(m); err != nil {
		return nil, nil, err
	}
	if o.trace == 1 {
		t = o.newPass(wl, true, 1)
		if err := wl.run(t); err != nil {
			return nil, nil, err
		}
	}
	return m, t, nil
}

// report prints the end-to-end metrics of m, or with a traced pass t the
// per-layer metrics of the pair, and returns the result line.
func report(o options, m, t *pass, w io.Writer) (result, error) {
	passes := []*pass{m}
	decls, metrics := endToEnd, endToEndMetrics(m)
	if t != nil {
		passes = append(passes, t)
		decls, metrics = perLayer, perLayerMetrics(m, t)
	}
	res := result{Correct: true, Metrics: make(map[string]jsonMetric, len(decls))}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.violations > 0 {
			res.Correct = false
		}
		for _, msg := range p.firstBad {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", m.w.name, msg)
		}
	}
	for _, d := range decls {
		mt := metrics[d.name]
		if math.IsNaN(mt.value) || math.IsInf(mt.value, 0) || (t == nil && !o.quick && mt.value <= 0) {
			return result{}, fmt.Errorf("metric %s = %v: nothing was measured", d.name, mt.value)
		}
		fmt.Fprintf(w, "%s %s %v %s n=%d\n", m.w.name, d.name, mt.value, d.unit, mt.n)
		res.Metrics[d.name] = jsonMetric{mt.value, d.unit}
	}
	return res, nil
}
