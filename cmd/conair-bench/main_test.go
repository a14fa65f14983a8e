package main

import (
	"slices"
	"testing"
)

// TestSectionSelection pins which sections a -table/-figure selection
// runs: an explicitly requested Table 4 is printed also when Figure 4 is
// requested with it.
func TestSectionSelection(t *testing.T) {
	for _, c := range []struct {
		sel  selection
		want []string
	}{
		{selection{table: 4}, []string{"table4"}},
		{selection{figure: 4}, []string{"figure4"}},
		{selection{table: 4, figure: 4}, []string{"table4", "figure4"}},
	} {
		var got []string
		for _, sec := range sections {
			if sec.want(c.sel) {
				got = append(got, sec.name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("table %d figure %d: sections %v, want %v", c.sel.table, c.sel.figure, got, c.want)
		}
	}
}
