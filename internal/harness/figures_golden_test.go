package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figuresGoldenPath holds the text of every quick-scale experiment report
// at seed 1, in ExperimentIDs order.
const figuresGoldenPath = "testdata/figures_quick.golden"

// TestFiguresQuickGolden locks the byte-exact output of every regenerable
// experiment (Figures 4-14, the analytics report and Table II) at quick
// scale: a change to how the harness builds or drives the simulated
// organization that shifts one random draw, one event or one traffic byte
// moves a report line and fails here. Regenerate deliberately with
//
//	UPDATE_GOLDEN=1 go test ./internal/harness -run TestFiguresQuickGolden
//
// and review the diff like any other behavior change.
func TestFiguresQuickGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range ExperimentIDs() {
		rep, err := RunExperiment(id, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b.WriteString(rep.String())
	}
	got := b.String()

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(figuresGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figuresGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d experiment reports to %s", len(ExperimentIDs()), figuresGoldenPath)
		return
	}

	raw, err := os.ReadFile(figuresGoldenPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with UPDATE_GOLDEN=1): %v", figuresGoldenPath, err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("report drifted at line %d\n  golden: %q\n  got:    %q", i+1, w, g)
		}
	}
}
