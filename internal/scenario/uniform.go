package scenario

// Uniform wraps the paper's randomized adversary (§4) as a Model so it
// sits in the same registry as the richer workloads and can serve as the
// inner contact model of Churn.

import (
	"fmt"

	"doda/internal/adversary"
	"doda/internal/core"
	"doda/internal/rng"
	"doda/internal/seq"
)

// Uniform draws every interaction uniformly over the n(n-1)/2 pairs.
type Uniform struct {
	n int
}

var (
	_ Model    = (*Uniform)(nil)
	_ Screener = (*Uniform)(nil)
)

// NewUniform validates n >= 2.
func NewUniform(n int) (*Uniform, error) {
	if n < 2 {
		return nil, fmt.Errorf("scenario: uniform model needs at least 2 nodes, got %d", n)
	}
	return &Uniform{n: n}, nil
}

// Name implements Model.
func (m *Uniform) Name() string { return "uniform" }

// N implements Model.
func (m *Uniform) N() int { return m.n }

// Generator implements Model.
func (m *Uniform) Generator(src *rng.Source) func(t int) seq.Interaction {
	return seq.UniformGen(m.n, src)
}

// ScreenedAdversary implements Screener: an adversary.Uniform, which
// plays Generator's sequence and can skip to the next interaction
// between two data owners.
func (m *Uniform) ScreenedAdversary(src *rng.Source) (core.ScreenedAdversary, error) {
	return adversary.NewUniform(m.Name(), m.n, src)
}
