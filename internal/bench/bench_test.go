package bench

import (
	"slices"
	"strings"
	"testing"
)

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table id %s != %s", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			for _, n := range tbl.Notes {
				if strings.Contains(n, "MISMATCH") {
					t.Errorf("%s reports a mismatch with the paper: %s", e.ID, n)
				}
			}
			if out := tbl.Render(); !strings.Contains(out, e.ID) {
				t.Errorf("render missing id:\n%s", out)
			}
			if md := tbl.Markdown(); !strings.Contains(md, "|") {
				t.Errorf("markdown broken:\n%s", md)
			}
		})
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

func TestE1GoldenValues(t *testing.T) {
	tbl, err := E1Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 iterations", len(tbl.Rows))
	}
	// Iteration 1: SSB 29; iteration 2: SSB 20; iteration 3: S=33, stop.
	if tbl.Rows[0][3] != "29" || tbl.Rows[1][3] != "20" || tbl.Rows[2][1] != "33" {
		t.Fatalf("golden values drifted: %v", tbl.Rows)
	}
}

// TestE2GoldenTable pins E2's table, rows and notes: the Figure-5 edge
// colours and must-host set of the paper tree.
func TestE2GoldenTable(t *testing.T) {
	tbl, err := E2Colouring()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"<CRU1,CRU2>", "CONFLICT"},
		{"<CRU2,CRU4>", "R"},
		{"<CRU4,CRU9>", "R"},
		{"<CRU9,sensor9>", "R"},
		{"<CRU4,CRU10>", "R"},
		{"<CRU10,sensor10>", "R"},
		{"<CRU4,CRU11>", "R"},
		{"<CRU11,sensor11>", "R"},
		{"<CRU2,CRU5>", "B"},
		{"<CRU5,sensor5>", "B"},
		{"<CRU1,CRU3>", "CONFLICT"},
		{"<CRU3,CRU6>", "B"},
		{"<CRU6,CRU13>", "B"},
		{"<CRU13,sensor13>", "B"},
		{"<CRU3,CRU7>", "Y"},
		{"<CRU7,sensor7>", "Y"},
		{"<CRU3,CRU8>", "G"},
		{"<CRU8,CRU12>", "G"},
		{"<CRU12,sensor12>", "G"},
	}
	if !slices.EqualFunc(tbl.Rows, want, slices.Equal) {
		t.Errorf("rows drifted:\n got %q\nwant %q", tbl.Rows, want)
	}
	if wantNotes := []string{"must-host set: CRU1 CRU2 CRU3"}; !slices.Equal(tbl.Notes, wantNotes) {
		t.Errorf("notes = %q, want %q", tbl.Notes, wantNotes)
	}
}

func TestTableAddRowFormats(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}}
	tbl.AddRow(1.5, "x")
	tbl.AddRow(2.0, 3)
	if tbl.Rows[0][0] != "1.5" || tbl.Rows[1][0] != "2" {
		t.Fatalf("float trimming broken: %v", tbl.Rows)
	}
}
