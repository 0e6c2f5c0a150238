package checker_test

import (
	"os"
	"testing"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/checker"
	"repro/internal/analysis/floatcmp"
)

// TestLoadAndRunCleanPackage loads a real in-module package through the
// go-list/export-data pipeline and runs one analyzer over it: the
// predicates layer is exempt from floatcmp, so the run must be clean.
func TestLoadAndRunCleanPackage(t *testing.T) {
	pkgs, err := checker.LoadTags([]string{"repro/internal/geom"}, "")
	if err != nil {
		t.Fatalf("LoadTags: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("LoadTags returned %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Path != "repro/internal/geom" {
		t.Errorf("Path = %q", pkg.Path)
	}
	if pkg.Types == nil || len(pkg.Files) == 0 || pkg.Info == nil {
		t.Fatalf("package not fully loaded: types=%v files=%d", pkg.Types, len(pkg.Files))
	}
	if err := pkg.Err(); err != nil {
		t.Fatalf("load errors: %v", err)
	}
	diags, _, err := checker.RunSuite([]*analysis.Analyzer{floatcmp.Analyzer}, pkgs, checker.NewFactStore())
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("floatcmp on the exempt predicates layer reported %d diagnostics: %v", len(diags), diags)
	}
}

// TestExportFile resolves standard-library export data (used by the
// analysistest harness to satisfy fixture imports) and rejects unknown
// packages.
func TestExportFile(t *testing.T) {
	f, err := checker.ExportFile("math")
	if err != nil {
		t.Fatalf("ExportFile(math): %v", err)
	}
	if _, err := os.Stat(f); err != nil {
		t.Errorf("export data file: %v", err)
	}
	if _, err := checker.ExportFile("no/such/package"); err == nil {
		t.Error("ExportFile(no/such/package) succeeded, want error")
	}
}
