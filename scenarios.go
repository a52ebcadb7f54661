package doda

// Scenario subsystem re-exports: library users reach every workload
// generator through the root package and never import internal/.

import (
	"io"

	"doda/internal/scenario"
)

// Scenario types.
type (
	// ScenarioModel is a seedable dynamic-graph workload generator.
	ScenarioModel = scenario.Model
	// ScenarioSpec is one registry entry: name, parameters, citation and
	// builder.
	ScenarioSpec = scenario.Spec
)

// Scenarios returns the registered workload catalogue (uniform, zipf,
// edge-markovian, community, churn, trace).
func Scenarios() []ScenarioSpec { return scenario.All() }

// ScenarioByName finds a registered scenario.
func ScenarioByName(name string) (ScenarioSpec, bool) { return scenario.Lookup(name) }

// NewUniformScenario returns the uniform contact model (the paper's §4
// randomized adversary) as a scenario model, e.g. to wrap in NewChurn.
func NewUniformScenario(n int) (ScenarioModel, error) { return scenario.NewUniform(n) }

// NewEdgeMarkovian returns the edge-Markovian contact model: every
// potential edge appears with probability pUp per step and disappears
// with probability pDown.
func NewEdgeMarkovian(n int, pUp, pDown float64) (ScenarioModel, error) {
	return scenario.NewEdgeMarkovian(n, pUp, pDown)
}

// NewCommunity returns the community contact model over the given
// community sizes (nodes numbered consecutively by community);
// interactions are intra-community with probability pIntra.
func NewCommunity(sizes []int, pIntra float64) (ScenarioModel, error) {
	return scenario.NewCommunity(sizes, pIntra)
}

// EvenCommunitySizes splits n nodes into k near-equal communities, for
// NewCommunity.
func EvenCommunitySizes(n, k int) ([]int, error) { return scenario.EvenSizes(n, k) }

// NewChurn decorates an inner contact model with per-node online/offline
// availability chains: online nodes fail with probability pFail per step,
// offline nodes recover with probability pRecover.
func NewChurn(inner ScenarioModel, pFail, pRecover float64) (ScenarioModel, error) {
	return scenario.NewChurn(inner, pFail, pRecover)
}

// ReplayTrace parses a CSV contact trace (`time,u,v` rows, '#' comments,
// optional header) into a finite Sequence ordered by timestamp.
func ReplayTrace(r io.Reader) (*Sequence, error) { return scenario.ReplayTrace(r) }

// ScenarioAdversary wraps a scenario model into an oblivious adversary
// seeded with seed, plus the lazily materialised stream backing it (hand
// the stream to knowledge oracles so adversary and oracles agree).
func ScenarioAdversary(m ScenarioModel, seed uint64) (Adversary, *Stream, error) {
	return scenario.Adversary(m, seed)
}

// TraceAdversary wraps a replayed trace as a finite oblivious adversary.
func TraceAdversary(s *Sequence) (Adversary, error) { return scenario.TraceAdversary(s) }
