package main

import (
	"fmt"
	"io"
	"os"
	"slices"
)

// selfcheck runs the untraced pass of each selected workload o.selfcheck
// times with one seed and prints how far each end-to-end metric moves between
// runs of the same commit: the noise floor a bound has to clear.
func selfcheck(o options, selected []*workload, w io.Writer) (bool, error) {
	allOK := true
	fmt.Fprintf(w, "%-14s %-17s %12s %12s %12s %12s %12s %9s\n",
		"workload", "metric", "median", "q1", "q3", "min", "max", "range/med")
	for _, wl := range selected {
		values := make(map[string][]float64)
		for i := 0; i < o.selfcheck; i++ {
			p := o.newPass(wl, false, 3)
			if err := wl.run(p); err != nil {
				return false, fmt.Errorf("%s: %w", wl.name, err)
			}
			for _, msg := range p.firstBad {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", wl.name, msg)
			}
			allOK = allOK && p.violations == 0 && p.failed == 0
			for name, mt := range endToEndMetrics(p) {
				values[name] = append(values[name], mt.value)
			}
		}
		for _, d := range endToEnd {
			v := values[d.name]
			slices.Sort(v)
			med := median(v)
			fmt.Fprintf(w, "%-14s %-17s %12.5g %12.5g %12.5g %12.5g %12.5g %9.4f\n",
				wl.name, d.name, med, quantile(v, 0.25), quantile(v, 0.75), v[0], v[len(v)-1], (v[len(v)-1]-v[0])/med)
		}
	}
	return allOK, nil
}

// quantile interpolates linearly in the sorted slice v.
func quantile(v []float64, q float64) float64 {
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}
