package mdp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// This file exports enumerated MDPs in the PRISM explicit-state format
// (.tra / .lab), connecting the reproduction to the ecosystem of
// probabilistic model checkers: any quantity this package computes can be
// independently re-checked by PRISM or Storm on the exported files.

// ExportTra writes the transition function in PRISM's explicit .tra
// format for MDPs:
//
//	numStates numChoices numTransitions
//	src choiceIdx dst prob [action]
//
// Probabilities are written as exact rational strings, which PRISM
// accepts (e.g. "1/2").
func (m *MDP) ExportTra(w io.Writer) error {
	c := m.CSR()
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", c.n, c.NumChoices(), c.NumBranches()); err != nil {
		return err
	}
	for s := int32(0); int(s) < c.n; s++ {
		cLo := c.choiceRow[s]
		for ci := cLo; ci < c.choiceRow[s+1]; ci++ {
			label := c.label(ci)
			for bi := c.branchRow[ci]; bi < c.branchRow[ci+1]; bi++ {
				if _, err := fmt.Fprintf(bw, "%d %d %d %s %s\n", s, ci-cLo, c.col[bi], c.pr(bi).String(), label); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ExportLab writes a PRISM .lab labelling file: the declared labels
// followed by, per state, the labels that hold there. Label 0 is always
// "init".
func (m *MDP) ExportLab(w io.Writer, init []bool, labels map[string][]bool) error {
	if init != nil && len(init) != m.NumStates {
		return fmt.Errorf("mdp: init mask has %d entries, want %d", len(init), m.NumStates)
	}
	names := make([]string, 0, len(labels))
	for name, mask := range labels {
		if len(mask) != m.NumStates {
			return fmt.Errorf("mdp: label %q mask has %d entries, want %d", name, len(mask), m.NumStates)
		}
		names = append(names, name)
	}
	sort.Strings(names) // deterministic output

	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "0=\"init\""); err != nil {
		return err
	}
	for i, name := range names {
		if _, err := fmt.Fprintf(bw, " %d=%q", i+1, name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw); err != nil {
		return err
	}

	for s := 0; s < m.NumStates; s++ {
		var ids []int
		if init != nil && init[s] {
			ids = append(ids, 0)
		}
		for i, name := range names {
			if labels[name][s] {
				ids = append(ids, i+1)
			}
		}
		if len(ids) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(bw, "%d:", s); err != nil {
			return err
		}
		for _, id := range ids {
			if _, err := fmt.Fprintf(bw, " %d", id); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}
