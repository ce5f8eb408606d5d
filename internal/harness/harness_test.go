package harness

import (
	"fmt"
	"strings"
	"testing"
)

func TestE1QuickGrid(t *testing.T) {
	tab, err := RunE1(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (2 GBs × 1 MB)", len(tab.Rows))
	}
	// TINTIN must win in every cell (the paper's "always better").
	for _, r := range tab.Rows {
		if !strings.HasPrefix(r[5], "x") {
			t.Errorf("speedup cell malformed: %v", r)
		}
		if r[5] == "x0" {
			t.Errorf("TINTIN did not win in %v", r)
		}
	}
	out := tab.Format()
	if !strings.Contains(out, "tintin") || !strings.Contains(out, "speedup") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestE2AssertionSweep(t *testing.T) {
	tab, err := RunE2(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 assertions", len(tab.Rows))
	}
	names := map[string]bool{}
	for _, r := range tab.Rows {
		names[r[0]] = true
	}
	for _, want := range []string{"atleastonelineitem", "positivequantity", "customernationinregion"} {
		if !names[want] {
			t.Errorf("missing assertion %s in E2 table", want)
		}
	}

	// The paper's §4 claim: incremental checking is always better than
	// the non-incremental method, per assertion. This is a smoke check at
	// harness scale, where the margin is large (×4 and up); the plan-shape
	// gates in core and difftest are the regression guard. Timings are
	// single wall-clock samples on a possibly busy machine, so a sweep with
	// a loss is re-measured, up to three times.
	var losses []string
	for attempt := 0; attempt < 3; attempt++ {
		pts, err := e2Points(QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		losses = losses[:0]
		for _, p := range pts {
			if p.tintin >= p.baseline {
				losses = append(losses, fmt.Sprintf("%s: tintin %v, non-incremental %v", p.name, p.tintin, p.baseline))
			}
		}
		if len(losses) == 0 {
			return
		}
	}
	t.Errorf("TINTIN did not beat the non-incremental recheck:\n  %s", strings.Join(losses, "\n  "))
}

func TestE3SkipAndCommit(t *testing.T) {
	tab, err := RunE3(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// Row 0: part-only update affects no assertion: 0 views checked.
	if tab.Rows[0][1] != "0" {
		t.Errorf("part-only update checked %s views, want 0", tab.Rows[0][1])
	}
	if !strings.HasPrefix(tab.Rows[0][3], "committed") {
		t.Errorf("part-only update outcome = %s", tab.Rows[0][3])
	}
	// Row 3: violating update must be rejected.
	if !strings.HasPrefix(tab.Rows[3][3], "rejected") {
		t.Errorf("violating update outcome = %s", tab.Rows[3][3])
	}
}

func TestE4Ablations(t *testing.T) {
	tab, err := RunE4(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 variants", len(tab.Rows))
	}
	// "no FK discard" must have more EDCs than the full configuration.
	full, noFK := tab.Rows[0], tab.Rows[1]
	if full[1] >= noFK[1] && len(full[1]) == len(noFK[1]) {
		t.Errorf("FK ablation did not change EDC count: full=%s noFK=%s", full[1], noFK[1])
	}
	// "no event-table skip" must check more views.
	noSkip := tab.Rows[3]
	if noSkip[4] != "0" {
		t.Errorf("no-skip variant still skipped views: %v", noSkip)
	}
}

func TestVerifyDetection(t *testing.T) {
	if err := VerifyDetection(QuickConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestE5AggregateExtension(t *testing.T) {
	tab, err := RunE5(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] == "0" {
			t.Errorf("no EDCs for %s", r[0])
		}
	}
}
