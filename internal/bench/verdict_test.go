package bench

import (
	"strings"
	"testing"
)

// TestFig8VerdictsFollowTheRows feeds the verdict the table that used to
// sit above the constant "IBMPS beats BMPS ... two-layer IBMPS is
// cheapest" (ibmps 0.30 s vs bmps 0.26 s at r=12, 2layer-ibmps 0.0036 s
// vs bmps 0.0018 s at r=4) and a table on which both relations hold.
func TestFig8VerdictsFollowTheRows(t *testing.T) {
	contradicted := []fig8Timing{
		{2, "exact", "dense", 0.0017}, {2, "bmps", "dense", 0.0004}, {2, "ibmps", "dense", 0.0007},
		{4, "bmps", "dense", 0.0018}, {4, "ibmps", "dense", 0.0030}, {4, "2layer-ibmps", "dense", 0.0036},
		{12, "bmps", "dense", 0.26}, {12, "ibmps", "dense", 0.30},
	}
	got := fig8Verdicts(contradicted)
	if len(got) != 2 || !strings.HasSuffix(got[0], "does not hold") || !strings.HasSuffix(got[1], "does not hold") {
		t.Fatalf("verdicts on a table that contradicts the paper:\n%s", strings.Join(got, "\n"))
	}
	if !strings.Contains(got[0], "0.87 at r=12") || !strings.Contains(got[1], "at r=4") {
		t.Fatalf("verdicts do not cite the rows they rest on:\n%s", strings.Join(got, "\n"))
	}

	agreeing := []fig8Timing{
		{2, "bmps", "dense", 0.001}, {2, "ibmps", "dense", 0.001},
		{9, "bmps", "dense", 0.2}, {9, "ibmps", "dense", 0.1}, {9, "2layer-ibmps", "dense", 0.05},
		{2, "bmps", "dist-gram", 0.001}, {2, "ibmps", "dist-gram", 0.002},
		{9, "bmps", "dist-gram", 0.2}, {9, "ibmps", "dist-gram", 0.1}, {9, "2layer-ibmps", "dist-gram", 0.15},
	}
	got = fig8Verdicts(agreeing)
	want := []string{"holds", "holds", "holds", "does not hold"} // dense x2, then dist-gram x2
	if len(got) != len(want) {
		t.Fatalf("%d verdict lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, w := range want {
		if strings.HasSuffix(got[i], "does not hold") != (w == "does not hold") {
			t.Errorf("line %d: %q, want it to end in %q", i, got[i], w)
		}
	}
}

func TestTable2VerdictsFollowTheRows(t *testing.T) {
	bonds := []int{2, 3, 4}
	got := table2Verdicts(bonds, map[string][]float64{
		"bmps": {146592, 17501832, 543552000}, "ibmps": {223200, 17588997, 876586368}, "2layer-ibmps": {259308, 26726529, 876424844},
	})
	if !strings.HasSuffix(got[0], "does not hold") || !strings.Contains(got[0], "0.62 at b=4") || strings.HasSuffix(got[1], "does not hold") {
		t.Fatalf("verdicts on the table printed before this change:\n%s", strings.Join(got, "\n"))
	}
	got = table2Verdicts(bonds, map[string][]float64{
		"bmps": {100, 3000, 90000}, "ibmps": {140, 2000, 50000}, "2layer-ibmps": {150, 2100, 60000},
	})
	if strings.HasSuffix(got[0], "does not hold") || !strings.HasSuffix(got[1], "does not hold") {
		t.Fatalf("verdicts on a table with BMPS dearer and two-layer dearer:\n%s", strings.Join(got, "\n"))
	}
}
