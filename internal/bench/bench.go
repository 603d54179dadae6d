// Package bench implements the experiment harness: one function per
// experiment of EXPERIMENTS.md, each returning a printable table.  The
// wfbench command prints them; the repository-root benchmarks wrap the
// performance experiments in testing.B loops.
//
// The paper is a formal one — its evaluation consists of worked
// figures, examples, and theorems rather than measured tables — so the
// E*/F*/T* experiments regenerate those artifacts mechanically, and
// the P* experiments quantify the scalability claims the paper makes
// qualitatively (see DESIGN.md).
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a named experiment.
type Experiment struct {
	ID   string
	Run  func() *Table
	Desc string
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1, "Example 1: universe and denotations over Γ={e,ē,f,f̄}"},
		{"F2", F2, "Figure 2: residuation state machines of D_< and D_→"},
		{"E6", E6, "Example 6: residuation instances"},
		{"F3", F3, "Figure 3: temporal operators related to events"},
		{"E8", E8, "Example 8: temporal identities (a)–(f)"},
		{"E9", E9, "Example 9 / Figure 4: synthesized guards"},
		{"E10", E10, "Example 10: execution by guard evaluation"},
		{"E11", E11, "Example 11: promise consensus for mutual ◇ guards"},
		{"E12", E12, "Example 4/12: travel workflow on all schedulers"},
		{"E13", E13, "Example 13: parametrized mutual exclusion"},
		{"E13D", E13D, "Example 13 distributed: type actors over the network"},
		{"E14", E14, "Example 14: guard growth, shrinking, resurrection"},
		{"T1", T1, "Theorem 1: residuation soundness (randomized check)"},
		{"T2T4", T2T4, "Theorems 2/4: guard independence (randomized check)"},
		{"L5", L5, "Lemma 5: Π(D) path view agrees with Definition 2"},
		{"T6", T6, "Theorem 6: generated = satisfying traces"},
		{"P1", P1, "guard synthesis cost vs dependency count (precompilation)"},
		{"P2", P2, "distributed vs centralized: messages and latency vs scale"},
		{"P3", P3, "ablation: Theorem 2/4 decomposition on/off"},
		{"P4", P4, "parametrized guard evaluation vs live instances"},
		{"P5", P5, "scheduler comparison across the workload suite"},
		{"P6", P6, "ablation: consensus elimination for ¬ literals"},
		{"P7", P7, "latency sensitivity: decision latency vs remote-link cost"},
		{"P8", P8, "parallel vs sequential guard synthesis (worker pool)"},
		{"P9", P9, "ablation: incremental vs from-scratch parametrized evaluation"},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
