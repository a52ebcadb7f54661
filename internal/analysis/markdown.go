package analysis

// Deterministic markdown rendering of an Analysis. Byte-stability is a
// contract, not an accident: the same (results, Options) must render the
// same bytes on every run, platform and shard layout, because CI diffs
// the report of a crashed-and-resumed sweep against an uninterrupted
// one, and the golden-file test pins the exact output. Nothing here may
// consult the clock, the environment, map iteration order, or float
// formatting that varies across platforms (Go's strconv does not).

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"doda/internal/sweep"
)

// fnum renders a float compactly and deterministically: up to 4
// significant digits, shortest form.
func fnum(v float64) string {
	if v != v {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// ci renders a bootstrap interval.
func ci(lo, hi float64) string {
	return "[" + fnum(lo) + ", " + fnum(hi) + "]"
}

// WriteMarkdown renders the full scaling-law report: the analysis
// configuration, one section per (scenario, algorithm) group with its
// measured points and candidate-model table, and the trend tests.
func WriteMarkdown(w io.Writer, a *Analysis) error {
	bw := &errWriter{w: w}
	bw.printf("# Scaling-law report\n\n")
	if a.Partial {
		bw.printf("**Partial analysis**: the fleet is not finished — fits cover the %d of %d cells complete so far. Complete cells are final (the cell-seed contract), but group estimates may shift as coverage grows.\n\n",
			a.Cells, a.CellsTotal)
	}
	bw.printf("- cells analysed: %d\n", a.Cells)
	if a.Bootstrap > 0 {
		bw.printf("- confidence intervals: %d residual-bootstrap resamples, seed %d, 95%% t-intervals\n",
			a.Bootstrap, a.Seed)
	} else {
		bw.printf("- confidence intervals: disabled (point estimates only)\n")
	}
	if a.Grid != nil {
		bw.printf("- grid: %s\n", gridLine(a.Grid))
	}
	bw.printf("- model selection: lowest AIC over the candidate set (BIC reported alongside); fits are least squares on log(mean duration)\n")

	bw.printf("\n## Selected models\n\n")
	writeSummaryTable(bw, a)

	for gi := range a.Groups {
		g := &a.Groups[gi]
		bw.printf("\n## %s / %s\n\n", g.Scenario, g.Algorithm)
		if a.Partial {
			if len(g.MissingSizes) > 0 {
				bw.printf("Coverage: %d/%d sizes complete (missing n: %s).\n\n",
					g.CoverageDone, g.CoverageTotal, intList(g.MissingSizes))
			} else {
				bw.printf("Coverage: %d/%d sizes complete.\n\n", g.CoverageDone, g.CoverageTotal)
			}
		}
		if g.Predicted != "" {
			bw.printf("Paper prediction: `%s`.", g.Predicted)
			if g.Law != nil {
				if g.MatchesPrediction() {
					bw.printf(" Selected: `%s` — matches.\n\n", g.Law.Best)
				} else {
					bw.printf(" Selected: `%s` — differs.\n\n", g.Law.Best)
				}
			} else {
				bw.printf("\n\n")
			}
		} else if g.Law != nil {
			bw.printf("Selected: `%s`.\n\n", g.Law.Best)
		}
		bw.printf("| n | replicas | terminated | mean duration | stddev |\n")
		bw.printf("|--:|--:|--:|--:|--:|\n")
		for _, p := range g.Points {
			bw.printf("| %d | %d | %d | %s | %s |\n", p.N, p.Replicas, p.Terminated, fnum(p.Mean), fnum(p.StdDev))
		}
		if len(g.SkippedSizes) > 0 {
			bw.printf("\nSkipped sizes (no terminated replica): %s.\n", intList(g.SkippedSizes))
		}
		if g.Law == nil {
			bw.printf("\n_%s._\n", g.Note)
			continue
		}
		bw.printf("\n| model | form | c | c 95%% CI | exponent | exp 95%% CI | R² | ΔAIC | ΔBIC |\n")
		bw.printf("|---|---|--:|---|--:|---|--:|--:|--:|\n")
		for _, f := range g.Law.Fits {
			exp, expCI := "—", "—"
			if f.Free {
				exp, expCI = fnum(f.Exponent), ci(f.ExpLo, f.ExpHi)
			}
			marker := ""
			if f.Model == g.Law.Best {
				marker = " ←"
			}
			bw.printf("| `%s`%s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
				f.Model, marker, f.Form, fnum(f.C), ci(f.CLo, f.CHi),
				exp, expCI, fnum(f.R2), fnum(f.DeltaAIC), fnum(f.DeltaBIC))
		}
		if g.Law.BestBIC != g.Law.Best {
			bw.printf("\nBIC disagrees: it selects `%s`.\n", g.Law.BestBIC)
		}
	}

	if len(a.Trends) > 0 {
		bw.printf("\n## Parameter trends\n\n")
		bw.printf("| scenario | fixed | algorithm | n | param | values | mean durations | Kendall τ | monotone |\n")
		bw.printf("|---|---|---|--:|---|---|---|--:|---|\n")
		for _, t := range a.Trends {
			bw.printf("| %s | %s | %s | %d | %s | %s | %s | %s | %s |\n",
				t.Scenario, dash(t.Fixed), t.Algorithm, t.N, t.Param,
				floatList(t.Values), floatList(t.Means), fnum(t.Tau), monotoneWord(t.Monotone))
		}
	}
	return bw.err
}

// writeSummaryTable renders the one-row-per-group selection table — the
// EXPERIMENTS.md-ready view `dodabench -report` embeds.
func writeSummaryTable(bw *errWriter, a *Analysis) {
	bw.printf("| scenario | algorithm | predicted | selected (AIC) | c | c 95%% CI | free exponent | exp 95%% CI | R² (sel) |\n")
	bw.printf("|---|---|---|---|--:|---|--:|---|--:|\n")
	for gi := range a.Groups {
		g := &a.Groups[gi]
		if g.Law == nil {
			bw.printf("| %s | %s | %s | _%s_ | — | — | — | — | — |\n",
				g.Scenario, g.Algorithm, dash(g.Predicted), g.Note)
			continue
		}
		sel, _ := g.Law.FitByName(g.Law.Best)
		free, _ := g.Law.FreeFit()
		bw.printf("| %s | %s | %s | `%s` | %s | %s | %s | %s | %s |\n",
			g.Scenario, g.Algorithm, dash(g.Predicted), g.Law.Best,
			fnum(sel.C), ci(sel.CLo, sel.CHi),
			fnum(free.Exponent), ci(free.ExpLo, free.ExpHi), fnum(sel.R2))
	}
}

func dash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

func monotoneWord(m int) string {
	switch m {
	case 1:
		return "increasing"
	case -1:
		return "decreasing"
	default:
		return "no"
	}
}

func intList(xs []int) string {
	s := make([]int, len(xs))
	copy(s, xs)
	sort.Ints(s)
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ", ")
}

func floatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, v := range xs {
		parts[i] = fnum(v)
	}
	return strings.Join(parts, ", ")
}

// gridLine renders the grid identity compactly.
func gridLine(g *sweep.Grid) string {
	refs := make([]string, len(g.Scenarios))
	for i, r := range g.Scenarios {
		refs[i] = r.String()
	}
	sizes := make([]string, len(g.Sizes))
	for i, n := range g.Sizes {
		sizes[i] = strconv.Itoa(n)
	}
	prov := g.Provenance
	if prov == "" {
		prov = "auto"
	}
	return fmt.Sprintf("scenarios=[%s] algorithms=[%s] sizes=[%s] replicas=%d seed=%d max=%d provenance=%s",
		strings.Join(refs, "; "), strings.Join(g.Algorithms, ","), strings.Join(sizes, ","),
		g.Replicas, g.Seed, g.MaxInteractions, prov)
}

// errWriter latches the first write error so the renderers read cleanly.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
