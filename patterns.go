package ofar

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"ofar/internal/topology"
	"ofar/internal/traffic"
)

// PatternSpec describes a synthetic traffic pattern independently of a
// concrete topology; it is instantiated against the simulated network when
// an experiment starts.
type PatternSpec struct {
	kind   patternKind
	offset int
	label  string
	mix    []MixComponent
	dims   [3]int
	flag   bool
	seed   uint64
}

type patternKind uint8

const (
	patternUniform patternKind = iota
	patternAdv
	patternMix
	patternStencil
	patternPerm
	patternBitComp
	patternBitRev
	patternShuffle
	patternTornado
)

// MixComponent is one weighted constituent of a traffic mix.
type MixComponent struct {
	Spec   PatternSpec
	Weight float64
}

// Uniform returns the UN pattern: every packet picks a destination
// uniformly among all other nodes.
func Uniform() PatternSpec { return PatternSpec{kind: patternUniform, label: "UN"} }

// Adv returns the adversarial ADV+n pattern: nodes of group i send to
// random nodes of group i+n. n = h reproduces the paper's worst case for
// local links (§III).
func Adv(n int) PatternSpec {
	return PatternSpec{kind: patternAdv, offset: n, label: fmt.Sprintf("ADV+%d", n)}
}

// Stencil3D returns a 3-D halo-exchange application workload (§I/§III
// motivation): X·Y·Z tasks on a torus, each packet targeting a random face
// neighbor. randomMapping selects Bhatele-style randomized task placement
// instead of the locality-preserving linear mapping.
func Stencil3D(x, y, z int, randomMapping bool) PatternSpec {
	m := "lin"
	if randomMapping {
		m = "rnd"
	}
	return PatternSpec{
		kind:  patternStencil,
		label: fmt.Sprintf("ST%dx%dx%d/%s", x, y, z, m),
		dims:  [3]int{x, y, z},
		flag:  randomMapping,
	}
}

// permutation returns a fixed random derangement pattern: every node always
// sends to the same partner.
func permutation(seed uint64) PatternSpec {
	return PatternSpec{kind: patternPerm, label: fmt.Sprintf("PERM(%d)", seed), seed: seed}
}

// MixOf returns a weighted mixture of patterns, as used by the burst
// experiments (§VI-C: MIX1 = 80% UN, 10% ADV+1, 10% ADV+h, etc.).
func MixOf(label string, components ...MixComponent) PatternSpec {
	return PatternSpec{kind: patternMix, label: label, mix: components}
}

// Name returns the pattern's display label.
func (ps PatternSpec) Name() string { return ps.label }

func (ps PatternSpec) build(d *topology.Dragonfly) traffic.Pattern {
	switch ps.kind {
	case patternAdv:
		return traffic.NewAdv(d, ps.offset)
	case patternStencil:
		m := traffic.MapLinear
		if ps.flag {
			m = traffic.MapRandom
		}
		st, err := traffic.NewStencil3D(d, ps.dims[0], ps.dims[1], ps.dims[2], m, ps.seed+1)
		if err != nil {
			panic(err) // dims checked against the topology at experiment start
		}
		return st
	case patternPerm:
		return traffic.NewPermutation(d, ps.seed)
	case patternBitComp:
		return traffic.NewBitComplement(d)
	case patternBitRev:
		return traffic.NewBitReverse(d)
	case patternShuffle:
		return traffic.NewShuffle(d)
	case patternTornado:
		return traffic.NewTornado(d)
	case patternMix:
		pats := make([]traffic.Pattern, len(ps.mix))
		weights := make([]float64, len(ps.mix))
		for i, c := range ps.mix {
			pats[i] = c.Spec.build(d)
			weights[i] = c.Weight
		}
		return traffic.NewMix(ps.label, pats, weights)
	default:
		return traffic.NewUniform(d)
	}
}

// ParsePattern parses a textual pattern name — "UN", "ADV+<n>", "MIX1",
// "MIX2", "MIX3" — as used by the command-line tools. The h parameter
// selects the adversarial component of the MIX patterns (ADV+h). It also
// names the classic permutations BITCOMP, BITREV, SHUFFLE, TORNADO (ADV with
// a near-half group offset) and PERM (a fixed derangement seeded with h+1).
func ParsePattern(s string, h int) (PatternSpec, error) {
	up := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case up == "UN" || up == "UNIFORM":
		return Uniform(), nil
	case strings.HasPrefix(up, "ADV+"):
		off := up[len("ADV+"):]
		n, err := strconv.Atoi(off)
		if err != nil || n < 1 || off[0] == '+' { // Atoi takes a sign; an offset is digits
			return PatternSpec{}, fmt.Errorf("ofar: bad ADV offset in %q", s)
		}
		return Adv(n), nil
	case up == "MIX1", up == "MIX2", up == "MIX3":
		return paperMixes(h)[up[3]-'1'], nil
	case up == "BITCOMP":
		return PatternSpec{kind: patternBitComp, label: "BITCOMP"}, nil
	case up == "BITREV":
		return PatternSpec{kind: patternBitRev, label: "BITREV"}, nil
	case up == "SHUFFLE":
		return PatternSpec{kind: patternShuffle, label: "SHUFFLE"}, nil
	case up == "TORNADO":
		return PatternSpec{kind: patternTornado, label: "TORNADO"}, nil
	case up == "PERM":
		return permutation(uint64(h) + 1), nil
	}
	return PatternSpec{}, fmt.Errorf("ofar: unknown pattern %q (want UN, ADV+<n>, MIX1..3, BITCOMP, BITREV, SHUFFLE, TORNADO, PERM)", s)
}

// resolvePattern parses s for cfg's network: ParsePattern's names plus
// Stencil3D's own, "ST<x>x<y>x<z>/lin" or ".../rnd", whose tasks must fit on
// the network's nodes.
func resolvePattern(s string, cfg Config) (PatternSpec, error) {
	up := strings.ToUpper(strings.TrimSpace(s))
	if !strings.HasPrefix(up, "ST") {
		return ParsePattern(s, cfg.H)
	}
	var x, y, z int
	var m string
	nodes := cfg.P * cfg.A * cmp.Or(cfg.Groups, cfg.A*cfg.H+1)
	if _, err := fmt.Sscanf(up, "ST%dX%dX%d/%s", &x, &y, &z, &m); err != nil || min(x, y, z) < 1 || (m != "LIN" && m != "RND") {
		return PatternSpec{}, fmt.Errorf("ofar: bad stencil %q (want ST<x>x<y>x<z>/lin or /rnd)", s)
	} else if x > nodes || y > nodes/x || z > nodes/(x*y) {
		return PatternSpec{}, fmt.Errorf("ofar: stencil %q has more tasks than the %d nodes", s, nodes)
	}
	return Stencil3D(x, y, z, m == "RND"), nil
}

// paperMixes returns the three traffic mixes of the burst experiment
// (§VI-C) for a network with the given h: MIX1 = 80/10/10, MIX2 = 60/20/20,
// MIX3 = 20/40/40 percent of UN / ADV+1 / ADV+h.
func paperMixes(h int) []PatternSpec {
	mk := func(name string, un, a1, ah float64) PatternSpec {
		return MixOf(name,
			MixComponent{Spec: Uniform(), Weight: un},
			MixComponent{Spec: Adv(1), Weight: a1},
			MixComponent{Spec: Adv(h), Weight: ah},
		)
	}
	return []PatternSpec{
		mk("MIX1", 0.8, 0.1, 0.1),
		mk("MIX2", 0.6, 0.2, 0.2),
		mk("MIX3", 0.2, 0.4, 0.4),
	}
}
