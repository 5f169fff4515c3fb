package experiments

import (
	"context"

	"strings"
	"testing"
)

func TestScaleValidate(t *testing.T) {
	for _, sc := range []Scale{Tiny(), Quick(), Paper()} {
		if err := sc.Validate(); err != nil {
			t.Fatalf("scale %q rejected: %v", sc.Name, err)
		}
	}
	bad := Tiny()
	bad.VeniceTrainN = 10
	if err := bad.Validate(); err == nil {
		t.Fatal("tiny Venice split accepted")
	}
	bad = Tiny()
	bad.PopSize = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("PopSize=1 accepted")
	}
	bad = Tiny()
	bad.Executions = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("Executions=0 accepted")
	}
	bad = Tiny()
	bad.MLPEpochs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("MLPEpochs=0 accepted")
	}
}

func TestTable1TinyRuns(t *testing.T) {
	res, err := Table1(context.Background(), Tiny(), 42, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.CoveragePct <= 0 || row.CoveragePct > 100 {
			t.Fatalf("h=%d coverage %v", row.Horizon, row.CoveragePct)
		}
		if row.ErrorRS <= 0 || row.ErrorNN <= 0 {
			t.Fatalf("h=%d errors RS=%v NN=%v", row.Horizon, row.ErrorRS, row.ErrorNN)
		}
		if row.Rules == 0 {
			t.Fatalf("h=%d no rules", row.Horizon)
		}
	}
	out := res.Format()
	for _, want := range []string{"Table 1", "Error RS", "Error NN", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestTable2TinyRuns(t *testing.T) {
	res, err := Table2(context.Background(), Tiny(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Horizon != 50 || res.Rows[1].Horizon != 85 {
		t.Fatalf("horizons %d,%d", res.Rows[0].Horizon, res.Rows[1].Horizon)
	}
	// Row pairing with the correct baseline.
	if res.Rows[0].ErrorMRAN == 0 || res.Rows[0].ErrorRAN != 0 {
		t.Fatalf("h=50 row baselines: MRAN=%v RAN=%v", res.Rows[0].ErrorMRAN, res.Rows[0].ErrorRAN)
	}
	if res.Rows[1].ErrorRAN == 0 || res.Rows[1].ErrorMRAN != 0 {
		t.Fatalf("h=85 row baselines: MRAN=%v RAN=%v", res.Rows[1].ErrorMRAN, res.Rows[1].ErrorRAN)
	}
	out := res.Format()
	for _, want := range []string{"Table 2", "Mackey-Glass", "Error MRAN", "Error RAN", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestTable3TinyRuns(t *testing.T) {
	res, err := Table3(context.Background(), Tiny(), 42, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ErrorRS <= 0 || row.ErrorFF <= 0 || row.ErrorRec <= 0 {
			t.Fatalf("h=%d zero error: %+v", row.Horizon, row)
		}
		if row.CoveragePct <= 0 {
			t.Fatalf("h=%d coverage %v", row.Horizon, row.CoveragePct)
		}
	}
	out := res.Format()
	for _, want := range []string{"Table 3", "sunspot", "Feedfw", "Recurr"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1TinyRuns(t *testing.T) {
	res, err := Figure1(context.Background(), Tiny(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rule == nil {
		t.Fatal("no rule")
	}
	if !strings.Contains(res.Rendered, "P") {
		t.Fatalf("render missing prediction marker:\n%s", res.Rendered)
	}
	if !strings.Contains(res.Rendered, "pred") {
		t.Fatal("render missing axis labels")
	}
}

func TestFigure2TinyRuns(t *testing.T) {
	res, err := Figure2(context.Background(), Tiny(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Real) == 0 || len(res.Real) != len(res.Predicted) || len(res.Real) != len(res.Mask) {
		t.Fatalf("misaligned traces: %d/%d/%d", len(res.Real), len(res.Predicted), len(res.Mask))
	}
	// The peak must be the max of the plotted window.
	maxReal := res.Real[0]
	for _, v := range res.Real {
		if v > maxReal {
			maxReal = v
		}
	}
	if maxReal != res.PeakValue {
		t.Fatalf("peak %v not in window (max %v)", res.PeakValue, maxReal)
	}
	for _, want := range []string{"Figure 2", "real water level", "prediction"} {
		if !strings.Contains(res.Rendered, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestAblationsTinyRuns(t *testing.T) {
	res, err := Ablations(context.Background(), Tiny(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 6 {
		t.Fatalf("only %d ablation rows", len(res.Rows))
	}
	names := map[string]bool{}
	for _, row := range res.Rows {
		if names[row.Variant] {
			t.Fatalf("duplicate variant %q", row.Variant)
		}
		names[row.Variant] = true
		if row.NMSE < 0 {
			t.Fatalf("%q NMSE %v", row.Variant, row.NMSE)
		}
		if row.CoveragePct <= 0 || row.CoveragePct > 100 {
			t.Fatalf("%q coverage %v", row.Variant, row.CoveragePct)
		}
	}
	if !strings.Contains(res.Format(), "Ablations") {
		t.Fatal("Format missing title")
	}
}

func TestGeneralizationTinyRuns(t *testing.T) {
	res, err := Generalization(context.Background(), Tiny(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	names := map[string]bool{}
	for _, row := range res.Rows {
		names[row.Learner] = true
		if row.CoveragePct <= 0 {
			t.Fatalf("%q coverage %v", row.Learner, row.CoveragePct)
		}
	}
	for _, want := range []string{"rule system", "RAN", "AR(12)"} {
		if !names[want] {
			t.Fatalf("missing learner %q", want)
		}
	}
	if !strings.Contains(res.Format(), "Lorenz") {
		t.Fatal("Format missing title")
	}
}

func TestTable1RejectsBadScale(t *testing.T) {
	bad := Tiny()
	bad.PopSize = 0
	if _, err := Table1(context.Background(), bad, 1, []int{1}); err == nil {
		t.Fatal("bad scale accepted")
	}
	if _, err := Table2(context.Background(), bad, 1); err == nil {
		t.Fatal("bad scale accepted by Table2")
	}
	if _, err := Table3(context.Background(), bad, 1, []int{1}); err == nil {
		t.Fatal("bad scale accepted by Table3")
	}
	if _, err := Figure1(context.Background(), bad, 1); err == nil {
		t.Fatal("bad scale accepted by Figure1")
	}
	if _, err := Figure2(context.Background(), bad, 1); err == nil {
		t.Fatal("bad scale accepted by Figure2")
	}
	if _, err := Ablations(context.Background(), bad, 1); err == nil {
		t.Fatal("bad scale accepted by Ablations")
	}
}

func TestExtensionsRejectBadScale(t *testing.T) {
	bad := Tiny()
	bad.Generations = 0
	if _, err := Generalization(context.Background(), bad, 1); err == nil {
		t.Fatal("Generalization accepted bad scale")
	}
}
