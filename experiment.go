package ofar

import (
	"cmp"
	"fmt"
	"strings"
)

// Experiment is the one description of a steady-state experiment — the CLIs
// fill it from flags, the sweep service decodes it from a request body: a
// configuration (explicit, or the paper's DefaultConfig(h) with optional
// routing/seed overrides), a pattern or job-level workload, offered loads and
// the warm-up/measurement window. Each (config, pattern, load) triple is one
// independently cacheable point.
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

	Pattern string    `json:"pattern,omitempty"` // UN, ADV+<n>, MIX1..3, ... (default UN)
	Loads   []float64 `json:"loads"`
	Warmup  int       `json:"warmup,omitempty"`  // cycles (default 3000)
	Measure int       `json:"measure,omitempty"` // cycles (default 5000)

	// Jobs switches to a job-level workload (mutually exclusive with
	// Pattern) in the ParseWorkload syntax, "stencil:4x4x4@0.3,a2a:32@0.5".
	// Loads then scale every job's load, each point's result is a
	// JobsResult, and the workload's canonical name is the pattern
	// component of the cache key.
	Jobs string `json:"jobs,omitempty"`
	// JobMap is "linear" (default) or "random" placement.
	JobMap string `json:"job_map,omitempty"`
	// Background is uniform load on nodes no job occupies.
	Background float64 `json:"background,omitempty"`
}

// Resolved is a canonicalized experiment: a validated configuration and
// pattern plus defaulted windows. What determines the simulation is in here;
// what doesn't (field order, absent-vs-zero JSON) is normalized away.
type Resolved struct {
	Config  Config
	Pattern PatternSpec
	Jobs    *Workload // non-nil for job-set experiments; Pattern is then unused
	Loads   []float64 // offered loads, or scale factors for job sets
	Warmup  int
	Measure int
	Canon   []byte // CanonicalConfigJSON(Config)
}

// PatternName returns the cache-key pattern component: the workload's
// canonical name for job-set experiments, the pattern label otherwise.
func (r Resolved) PatternName() string {
	if r.Jobs != nil {
		return r.Jobs.Name()
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
		if e.Pattern != "" {
			return r, fmt.Errorf("pattern and jobs are mutually exclusive")
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
	} else if r.Pattern, err = ParsePattern(cmp.Or(e.Pattern, "UN"), r.Config.H); err != nil {
		return r, err
	}
	r.Canon, err = CanonicalConfigJSON(r.Config)
	return r, err
}
