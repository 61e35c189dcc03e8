package mdp

import (
	"strings"
	"testing"
)

func exportFixture() *MDP {
	return mustNew([][]Choice{
		{tickCoin("flip", 1, 2), moveTo("skip", 2)},
		nil,
		{tickTo("retry", 0)},
	})
}

func TestExportTra(t *testing.T) {
	var buf strings.Builder
	if err := exportFixture().ExportTra(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "3 3 4" {
		t.Errorf("header = %q, want \"3 3 4\"", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	for _, want := range []string{
		"0 0 1 1/2 flip",
		"0 0 2 1/2 flip",
		"0 1 2 1 skip",
		"2 0 0 1 retry",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing transition line %q:\n%s", want, out)
		}
	}
}

func TestExportLab(t *testing.T) {
	m := exportFixture()
	var buf strings.Builder
	err := m.ExportLab(&buf, mask(3, 0), map[string][]bool{
		"target": mask(3, 1),
		"avoid":  mask(3, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != `0="init" 1="avoid" 2="target"` {
		t.Errorf("declaration line = %q", lines[0])
	}
	for _, want := range []string{"0: 0", "1: 2", "2: 1"} {
		found := false
		for _, line := range lines[1:] {
			if line == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing label line %q:\n%s", want, out)
		}
	}
}

func TestExportLabShapeErrors(t *testing.T) {
	m := exportFixture()
	var buf strings.Builder
	if err := m.ExportLab(&buf, mask(2, 0), nil); err == nil {
		t.Error("short init mask accepted")
	}
	if err := m.ExportLab(&buf, nil, map[string][]bool{"x": mask(2, 0)}); err == nil {
		t.Error("short label mask accepted")
	}
	if err := m.ExportLab(&buf, nil, nil); err != nil {
		t.Errorf("nil masks rejected: %v", err)
	}
}
