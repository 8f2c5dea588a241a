package ofar

import (
	"cmp"
	"fmt"
	"strings"
)

// Experiment is the one description of an experiment — the CLIs and the
// figure table fill it, the sweep service decodes it from a request body: a
// configuration (explicit, or the paper's DefaultConfig(h) with optional
// routing/seed overrides), a pattern or job-level workload, offered loads and
// the warm-up/measurement window. Each (config, pattern, load) triple is one
// independently cacheable point. A point is a steady-state measurement unless
// one of the optional sections asks for a pattern switch (Transient) or a
// burst (Burst) instead.
type Experiment struct {
	// H builds the paper's DefaultConfig(h) when Config is absent (default 3).
	H int `json:"h,omitempty"`
	// Config, when present, is used verbatim (then Routing/Seed still apply).
	Config *Config `json:"config,omitempty"`
	// Routing overrides the mechanism (MIN, VAL, PB, UGAL-L, PAR, OFAR,
	// OFAR-L; any case) under the Config.WithRouting conventions: baselines
	// drop the escape ring, PAR gets its 4 local/injection VCs.
	Routing string `json:"routing,omitempty"`
	// Seed overrides the RNG seed (part of the cache key: different seeds
	// are different experiments).
	Seed *uint64 `json:"seed,omitempty"`

	Pattern string    `json:"pattern,omitempty"` // ParsePattern's names or ST<x>x<y>x<z>/lin|rnd (default UN)
	Loads   []float64 `json:"loads"`
	Warmup  int       `json:"warmup,omitempty"`  // cycles (default 3000)
	Measure int       `json:"measure,omitempty"` // cycles (default 5000)

	// Jobs switches to a job-level workload (mutually exclusive with
	// Pattern and the sections) in the ParseWorkload syntax,
	// "stencil:4x4x4@0.3,a2a:32@0.5".
	// Loads then scale every job's load, each point's result is a
	// JobsResult, and the workload's canonical name is the pattern
	// component of the cache key.
	Jobs string `json:"jobs,omitempty"`
	// JobMap is "linear" (default) or "random" placement.
	JobMap string `json:"job_map,omitempty"`
	// Background is uniform load on nodes no job occupies.
	Background float64 `json:"background,omitempty"`

	// Transient makes each point the §VI-B pattern switch of Fig. 6.
	Transient *Transient `json:"transient,omitempty"`
	// Burst makes the point the §VI-C burst consumption of Fig. 7.
	Burst *Burst `json:"burst,omitempty"`
}

// Transient is the §VI-B run shape: Pattern runs for Warmup cycles, then
// After takes over and the network runs Run more cycles plus Drain cycles,
// generation continuing, so that late deliveries fill the series. The point
// reports the mean latency of the packets sent in each Bucket-cycle bucket,
// from Run/2 cycles before the switch to Run cycles after it (Measure is
// unused).
type Transient struct {
	After  string `json:"after"` // a pattern, as Pattern
	Run    int    `json:"run"`
	Drain  int    `json:"drain"`
	Bucket int    `json:"bucket"`
}

// Burst is the §VI-C run shape: every node injects PerNode packets of
// Pattern as fast as the network accepts them, and the point reports the
// cycles until all are delivered, or MaxCycles. A burst has no load axis and
// no warm-up (the load, Warmup and Measure are unused).
type Burst struct {
	PerNode   int `json:"per_node"`
	MaxCycles int `json:"max_cycles"`
}

// Resolved is a canonicalized experiment: a validated configuration and
// pattern plus defaulted windows. What determines the simulation is in here;
// what doesn't (field order, absent-vs-zero JSON) is normalized away.
type Resolved struct {
	Config    Config
	Pattern   PatternSpec
	Jobs      *Workload // non-nil for job-set experiments; Pattern is then unused
	Loads     []float64 // offered loads, or scale factors for job sets
	Warmup    int
	Measure   int
	Transient *Transient  // the Experiment's run-shape sections,
	Burst     *Burst      // at most one non-nil
	After     PatternSpec // Transient.After, parsed
	Canon     []byte      // Config's canonical JSON: execution-only fields normalized away
}

// PatternName returns the cache-key pattern component: the workload's
// canonical name for job-set experiments, the pattern label otherwise, and
// for a transient or a burst that label wrapped with every section field.
func (r Resolved) PatternName() string {
	switch {
	case r.Jobs != nil:
		return r.Jobs.Name()
	case r.Transient != nil:
		t := r.Transient
		return fmt.Sprintf("TRANSIENT[%s->%s|run=%d|drain=%d|bucket=%d]", r.Pattern.Name(), r.After.Name(), t.Run, t.Drain, t.Bucket)
	case r.Burst != nil:
		return fmt.Sprintf("BURST[%s|per_node=%d|max_cycles=%d]", r.Pattern.Name(), r.Burst.PerNode, r.Burst.MaxCycles)
	}
	return r.Pattern.Name()
}

// Resolve applies the defaults and conventions and rejects what the simulator
// cannot run. Ranges an operator may want to bound (loads, cycles, workers)
// are the caller's business: the sweep service caps them, the CLIs do not.
func (e Experiment) Resolve() (Resolved, error) {
	r := Resolved{Loads: e.Loads, Warmup: cmp.Or(e.Warmup, 3000), Measure: cmp.Or(e.Measure, 5000)}
	if e.Config != nil {
		r.Config = *e.Config
	} else {
		r.Config = DefaultConfig(cmp.Or(e.H, 3))
	}
	if e.Seed != nil {
		r.Config.Seed = *e.Seed
	}
	if e.Routing != "" {
		r.Config = r.Config.WithRouting(Routing(strings.ToUpper(strings.TrimSpace(e.Routing))))
	}
	err := r.Config.Validate()
	if err != nil {
		return r, err
	}
	if e.Jobs != "" {
		if e.Pattern != "" || e.Transient != nil || e.Burst != nil {
			return r, fmt.Errorf("jobs are mutually exclusive with a pattern, a transient and a burst")
		}
		w, err := ParseWorkload(e.Jobs)
		if err != nil {
			return r, fmt.Errorf("parsing jobs: %w", err)
		}
		switch strings.ToLower(strings.TrimSpace(e.JobMap)) {
		case "", "linear":
		case "random":
			w.RandomMap = true
		default:
			return r, fmt.Errorf("job_map %q: want linear or random", e.JobMap)
		}
		w.Background = e.Background
		r.Jobs = &w
	} else if r.Pattern, err = resolvePattern(cmp.Or(e.Pattern, "UN"), r.Config); err != nil {
		return r, err
	}
	if err = r.resolveSections(e); err != nil {
		return r, err
	}
	r.Canon, err = canonicalConfigJSON(r.Config)
	return r, err
}

// resolveSections validates e's optional run-shape sections and copies them
// into r.
func (r *Resolved) resolveSections(e Experiment) (err error) {
	r.Transient, r.Burst = e.Transient, e.Burst
	switch t, b := e.Transient, e.Burst; {
	case t != nil && b != nil:
		return fmt.Errorf("transient and burst are mutually exclusive")
	case t != nil:
		if t.Run < 0 || t.Drain < 0 || t.Bucket < 1 {
			return fmt.Errorf("transient run/drain/bucket must be ≥ 0 / ≥ 0 / ≥ 1")
		}
		r.After, err = resolvePattern(t.After, r.Config)
		return err
	case b != nil && (b.PerNode < 0 || b.MaxCycles < 1):
		return fmt.Errorf("burst per_node/max_cycles must be ≥ 0 / ≥ 1")
	}
	return nil
}
