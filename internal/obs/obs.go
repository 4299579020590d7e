package obs

// Obs bundles a metrics registry with an optional span tracer and
// coverage-probe table — the one instrumentation handle every layer of the
// node carries. A nil *Obs is fully inert; an Obs without spans meters but
// does not trace, and one without probes drops probe hits. Components
// that receive no Obs create a private one so their Stats() snapshots keep
// working standalone.
type Obs struct {
	reg    *Registry
	tracer *Tracer
}

// New creates an Obs metered against clock (nil clock = deterministic
// logical clock) with tracing disabled.
func New(clock Clock) *Obs {
	return &Obs{reg: NewRegistry(clock)}
}

// WithSpans attaches a request-span tracer retaining the last capacity
// completed traces, with a slow-op log gated at slowThreshold clock units
// (0 disables the slow log), and returns o for chaining. capacity <= 0
// selects DefaultTraceCap. Attach spans before handing the Obs to components:
// the RPC server resolves its tracer handle at construction.
func (o *Obs) WithSpans(capacity int, slowThreshold uint64) *Obs {
	o.tracer = newTracer(o.reg, capacity, slowThreshold)
	return o
}

// WithProbes turns on the coverage-probe table (§4.2) and returns o for
// chaining. Harnesses turn it on; a production node leaves it off, so Hit
// costs a nil check and the metrics snapshot carries no probes. Turn probes
// on before handing the Obs to components.
func (o *Obs) WithProbes() *Obs {
	o.reg.probes = make(Probes)
	return o
}

// Hit counts one hit of the named coverage probe. It is a no-op for a nil
// Obs or one without probes.
func (o *Obs) Hit(name string) {
	if o == nil || o.reg.probes == nil {
		return
	}
	o.reg.hit(name)
}

// Tracer returns the attached request-span tracer, or nil (also for a nil
// Obs) — and a nil Tracer hands out nil spans, so callers never branch.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Metrics returns the registry (nil for a nil Obs).
func (o *Obs) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Now reads the obs clock (tick 0 for a nil Obs).
func (o *Obs) Now() uint64 {
	if o == nil {
		return 0
	}
	return o.reg.Now()
}

// Counter resolves a counter handle (nil-safe).
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(name)
}

// Gauge resolves a gauge handle (nil-safe).
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.reg.Gauge(name)
}

// Histogram resolves a histogram handle (nil-safe).
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.Histogram(name)
}

// Snapshot captures the registry (zero Snapshot for a nil Obs).
func (o *Obs) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	return o.reg.Snapshot()
}
