package doda

// Analysis subsystem re-exports: library users extract scaling laws
// from sweep results through the root package and never import
// internal/.

import (
	"io"

	"doda/internal/analysis"
	"doda/internal/sweep"
)

// Analysis types.
type (
	// SweepAnalysis is a whole sweep's scaling-law extraction: per
	// (scenario, algorithm) group fits plus parameter trend tests.
	SweepAnalysis = analysis.Analysis
	// SweepAnalysisOptions tunes the bootstrap resampling behind the
	// confidence intervals.
	SweepAnalysisOptions = analysis.Options
	// ScalingLawFit is a candidate-set fit over one point set: every
	// model's fit plus the AIC/BIC selection.
	ScalingLawFit = analysis.LawFit
	// SweepCellResult is one completed sweep cell's statistics.
	SweepCellResult = sweep.CellResult
)

// AnalyzeSweep extracts scaling laws from completed sweep cells: groups
// them by (scenario, algorithm), fits the paper's candidate growth
// forms plus a free power law to each group's (n, mean duration)
// points, selects among the candidates by AIC/BIC with deterministic
// bootstrap confidence intervals, and tests single-parameter monotone
// trends. The result is deterministic given (results, opt).
func AnalyzeSweep(results []SweepCellResult, opt SweepAnalysisOptions) (*SweepAnalysis, error) {
	return analysis.Analyze(results, opt)
}

// AnalyzeSweepCheckpoint analyzes the checkpoint directories of a
// completed sweep — one unsharded checkpoint or a whole shard fleet —
// after validating them exactly as `dodasweep merge` does.
func AnalyzeSweepCheckpoint(dirs []string, opt SweepAnalysisOptions) (*SweepAnalysis, error) {
	return analysis.AnalyzeCheckpoint(dirs, opt)
}

// FitScalingLaw fits every candidate growth form to the (n, y) points
// (at least three distinct sizes) and selects among them by AIC/BIC;
// the free power law c·n^a reports the empirical exponent with its
// bootstrap confidence interval.
func FitScalingLaw(ns, ys []float64, opt SweepAnalysisOptions) (*ScalingLawFit, error) {
	return analysis.FitScalingLaw(ns, ys, opt)
}

// WriteSweepAnalysis renders the deterministic markdown scaling-law
// report `dodasweep analyze` prints: same analysis, same bytes.
func WriteSweepAnalysis(w io.Writer, a *SweepAnalysis) error {
	return analysis.WriteMarkdown(w, a)
}

// ReadSweepResults decodes a stream of cell-result JSON lines (the
// dodasweep stdout format) back into typed results — the bridge from
// saved sweep output to AnalyzeSweep.
func ReadSweepResults(r io.Reader) ([]SweepCellResult, error) {
	return sweep.ReadResults(r)
}
