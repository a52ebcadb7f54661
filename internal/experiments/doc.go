// Package experiments reproduces every quantitative and behavioural
// result of the paper as a runnable experiment. The paper has no
// numbered tables or figures — it is a theory paper — so each theorem,
// lemma and corollary becomes one experiment (E1–E14) whose report
// compares measured values against the paper's closed forms or
// asymptotic claims and issues a PASS/FAIL verdict. Two ablations (A1,
// A2) probe design choices, X1–X2 extend beyond the paper's
// adversaries, and S1–S2 sweep the scenario generators through
// internal/sweep.
//
// # Determinism
//
// Experiments are pure functions of Config: deterministic given (Scale,
// Seed), with every experiment deriving its own sub-seeds from
// Config.Seed so suites can run experiments concurrently (dodabench
// -parallel) without changing a single number. They run at two scales:
// ScaleQuick for tests and CI (about 1.5 s for the whole suite),
// ScaleFull for the paper-quality numbers recorded in EXPERIMENTS.md
// (about 23 s of wall time for the whole suite on a 2-vCPU VM).
//
// # Checkpointing
//
// Config.CheckpointDir routes the sweep-backed experiments (S1/S2)
// through the resumable checkpoint service (internal/sweepd): grid
// cells journal under <dir>/<experiment> and a restarted suite resumes
// past them. Results are identical either way — the per-cell
// deterministic seed contract makes a resumed cell indistinguishable
// from a fresh one, and the grid fingerprint rejects a stale journal if
// the grid itself changed.
//
// The scaling-law reporting that rides on these experiments
// (`dodabench -report`) lives in internal/analysis; this package owns
// the point-wise PASS/FAIL verdicts.
package experiments
