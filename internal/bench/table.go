package bench

import (
	"fmt"
	"strings"

	"repro/internal/bench/series"
)

// Table is one experiment's output.
type Table struct {
	ID      string // experiment id, e.g. "E1"
	Title   string // human title
	Paper   string // what the paper reports / predicts for this artefact
	Columns []string
	Rows    [][]string
	Notes   []string // measured-vs-paper commentary appended below the table
	// Metrics are the experiment's trendable scalars in the shared
	// perf-series schema: perf experiments (P*) fill them so crbench -out
	// and crload persist through the same cr-perf-run/v1 record.
	Metrics []series.Bench
}

// AddMetric appends one trendable scalar under this experiment's id
// (name becomes "<ID>/<name>").
func (t *Table) AddMetric(name string, value float64, unit string) {
	t.Metrics = append(t.Metrics, series.Bench{Name: t.ID + "/" + name, Value: value, Unit: unit})
}

// AddRow appends a row, formatting every cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Render draws the table in aligned plain text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s — %s\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&sb, "paper: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the table as GitHub-flavoured markdown (crbench -markdown).
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&sb, "**Paper:** %s\n\n", t.Paper)
	}
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n*%s*\n", n)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// Experiment is a registered, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// All returns every experiment in id order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figure 4: SSB worked example", E1Figure4},
		{"E2", "Figure 5: colouring the CRU tree", E2Colouring},
		{"E3", "Figure 6: coloured assignment graph", E3AssignmentGraph},
		{"E4", "Figure 8 + §5.3: σ/β labelling identities", E4Labelling},
		{"E5", "Figure 9/10: adapted SSB on the paper tree", E5AdaptedSSB},
		{"E6", "§1 epilepsy scenario: SSB vs baselines", E6Epilepsy},
		{"E7", "§4.2 complexity: generic SSB scaling", E7GenericScaling},
		{"E8", "§5.4 complexity: adapted SSB scaling", E8AdaptedScaling},
		{"E9", "solver agreement on random instances", E9Agreement},
		{"E10", "§6 future work: B&B and GA vs exact", E10FutureWork},
		{"E11", "§4.1 weighting coefficient λ sweep", E11LambdaSweep},
		{"E12", "heterogeneity: satellite/host speed-ratio sweep", E12SpeedRatio},
		{"E13", "model validation: simulator vs analytic objective", E13SimValidation},
		{"E14", "§2 baseline: Bokhari's original mapping", E14Bokhari},
		{"E15", "extension: pipelined throughput by policy", E15Throughput},
		{"E16", "§2 related work: chain partitioning", E16Chain},
		{"E17", "§6 future work: DAG-structured procedures", E17DAG},
		{"P1", "perf: compiled flat-tree plans vs pointer walks", P1CompiledVsPointer},
		{"P2", "perf: clustered serving 1-node vs 3-node", P2ClusterScaling},
		{"P3", "perf: open-loop load harness on a 2-node fleet", P3LoadHarness},
		{"P4", "perf: parallel branch-and-bound cores", P4ParallelCores},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
