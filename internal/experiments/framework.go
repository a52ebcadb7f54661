package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Scale selects experiment sizes.
type Scale int

const (
	// ScaleQuick runs small sweeps suitable for unit tests (seconds).
	ScaleQuick Scale = iota + 1
	// ScaleFull runs the sweep sizes recorded in EXPERIMENTS.md
	// (tens of seconds).
	ScaleFull
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleQuick:
		return "quick"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Config parameterises a suite run.
type Config struct {
	// Scale selects sweep sizes (default ScaleQuick).
	Scale Scale
	// Seed derives all randomness; same seed, same report.
	Seed uint64
	// Progress, when non-nil, receives one line per sweep point.
	Progress io.Writer
	// CheckpointDir, when non-empty, makes the sweep-backed experiments
	// (S1/S2) journal every completed grid cell under this directory and
	// resume past already-journaled cells on the next run — so a killed
	// full-scale suite run picks up where it stopped instead of
	// re-sweeping from cell 0. Results are identical either way: the
	// per-cell deterministic seed contract makes resumed and fresh cells
	// indistinguishable.
	CheckpointDir string
}

func (c Config) scale() Scale {
	if c.Scale == 0 {
		return ScaleQuick
	}
	return c.Scale
}

func (c Config) progressf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format, args...)
	}
}

// Table is a formatted result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends one row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v != v: // NaN
		return "NaN"
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Format renders the table as aligned ASCII.
func (t *Table) Format(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if n := w - len([]rune(s)); n > 0 {
		return s + strings.Repeat(" ", n)
	}
	return s
}

// CSV renders the table as comma-separated values (cells are simple
// numbers and identifiers; no quoting is needed or applied).
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Check is one verdict line of a report: a named assertion with outcome.
type Check struct {
	Name string
	Pass bool
	Got  string
	Want string
}

// Report is an experiment's outcome.
type Report struct {
	ID         string
	Name       string
	PaperClaim string
	Tables     []*Table
	Checks     []Check
	Notes      []string
}

// Pass reports whether all checks passed.
func (r *Report) Pass() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// check records an assertion outcome.
func (r *Report) check(name string, pass bool, gotFormat string, got any, want string) {
	r.Checks = append(r.Checks, Check{
		Name: name,
		Pass: pass,
		Got:  fmt.Sprintf(gotFormat, got),
		Want: want,
	})
}

// note records free-form commentary.
func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Format renders the full report.
func (r *Report) Format(w io.Writer) error {
	status := "PASS"
	if !r.Pass() {
		status = "FAIL"
	}
	if _, err := fmt.Fprintf(w, "== %s: %s [%s]\n   paper: %s\n", r.ID, r.Name, status, r.PaperClaim); err != nil {
		return err
	}
	for _, tb := range r.Tables {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := tb.Format(w); err != nil {
			return err
		}
	}
	if len(r.Checks) > 0 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		for _, c := range r.Checks {
			mark := "ok  "
			if !c.Pass {
				mark = "FAIL"
			}
			if _, err := fmt.Fprintf(w, "  [%s] %s: got %s, want %s\n", mark, c.Name, c.Got, c.Want); err != nil {
				return err
			}
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Experiment is one reproducible experiment.
type Experiment struct {
	ID         string
	Name       string
	PaperClaim string
	Run        func(cfg Config) (*Report, error)
}

// All returns every experiment in display order.
func All() []Experiment {
	return []Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(),
		e8(), e9(), e10(), e11(), e12(), e13(), e14(),
		a1(), a2(), x1(), x2(), s1(), s2(),
	}
}

// ByID finds an experiment by its identifier (case-insensitive).
func ByID(id string) (Experiment, bool) {
	id = strings.ToUpper(strings.TrimSpace(id))
	for _, e := range All() {
		if strings.ToUpper(e.ID) == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment identifiers.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}
