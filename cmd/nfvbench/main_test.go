package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nfvchain/internal/benchsuite"
)

// TestScenarioNamesMatchBaseline pins the registry to the committed
// trajectory: -compare keys on names, so a rename or reorder would silently
// drop a scenario from the gate.
func TestScenarioNamesMatchBaseline(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "results", "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, b := range base.Benchmarks {
		want = append(want, b.Name)
	}
	var got []string
	seen := make(map[string]bool)
	for _, sc := range benchsuite.Scenarios() {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		got = append(got, sc.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry names differ from results/BENCH.json:\n got  %q\n want %q", got, want)
	}
}

func TestCompareBaseline(t *testing.T) {
	base := []benchResult{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 10, GOMAXPROCS: 1},
		{Name: "B", NsPerOp: 2000, AllocsPerOp: 20, GOMAXPROCS: 1},
	}
	tests := []struct {
		name    string
		got     []benchResult
		wantErr string   // substring of the error; "" means the gate passes
		wantOut []string // substrings of the report
	}{
		{
			name: "unchanged",
			got: []benchResult{
				{Name: "A", NsPerOp: 1000, AllocsPerOp: 10, GOMAXPROCS: 1},
				{Name: "B", NsPerOp: 2000, AllocsPerOp: 20, GOMAXPROCS: 1},
			},
			wantOut: []string{"compared 2 scenarios"},
		},
		{
			name:    "allocs increase fails",
			got:     []benchResult{{Name: "A", NsPerOp: 1000, AllocsPerOp: 11, GOMAXPROCS: 1}},
			wantErr: "A: allocs/op 10 -> 11",
			wantOut: []string{"FAIL allocs/op"},
		},
		{
			name:    "allocs decrease passes",
			got:     []benchResult{{Name: "A", NsPerOp: 1000, AllocsPerOp: 9, GOMAXPROCS: 1}},
			wantOut: []string{"compared 1 scenarios"},
		},
		{
			name:    "ns rise within tolerance passes",
			got:     []benchResult{{Name: "A", NsPerOp: 1100, AllocsPerOp: 10, GOMAXPROCS: 1}},
			wantOut: []string{"+10.0%", "ok"},
		},
		{
			name:    "ns rise beyond tolerance fails",
			got:     []benchResult{{Name: "A", NsPerOp: 1200, AllocsPerOp: 10, GOMAXPROCS: 1}},
			wantErr: "A: ns/op 1000 -> 1200",
			wantOut: []string{"FAIL ns/op"},
		},
		{
			name: "GOMAXPROCS mismatch is skipped",
			got: []benchResult{
				{Name: "A", NsPerOp: 9000, AllocsPerOp: 99, GOMAXPROCS: 2},
				{Name: "B", NsPerOp: 2000, AllocsPerOp: 20, GOMAXPROCS: 1},
			},
			wantOut: []string{"A", "skipped: GOMAXPROCS 1 (baseline) vs 2 (now)", "compared 1 scenarios"},
		},
		{
			name:    "every entry skipped is no overlap",
			got:     []benchResult{{Name: "A", NsPerOp: 1000, AllocsPerOp: 10, GOMAXPROCS: 2}},
			wantErr: "no scenario in common",
		},
		{
			name:    "zero overlap is an error",
			got:     []benchResult{{Name: "C", NsPerOp: 1000, AllocsPerOp: 10, GOMAXPROCS: 1}},
			wantErr: "no scenario in common",
		},
		{
			name: "one-sided entries are reported but pass",
			got: []benchResult{
				{Name: "A", NsPerOp: 1000, AllocsPerOp: 10, GOMAXPROCS: 1},
				{Name: "C", NsPerOp: 5000, AllocsPerOp: 500, GOMAXPROCS: 1},
			},
			wantOut: []string{"C", "(no baseline entry)", "B", "(baseline only, not run)", "compared 1 scenarios"},
		},
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	data, err := json.Marshal(benchFile{Benchmarks: base})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := compareBaseline(&out, path, tc.got, 0.15)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("passed, want error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
			for _, s := range tc.wantOut {
				if !strings.Contains(out.String(), s) {
					t.Errorf("report missing %q:\n%s", s, out.String())
				}
			}
		})
	}
}
