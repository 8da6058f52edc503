package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDecoratedStacksPassChecks runs every workload briefly with the layer
// decorators off and on. Both must pass the same correctness checks (any
// failed check is an error) and produce every metric BENCHMARK.json declares:
// the traced run's decorators must not change what the stack does.
func TestDecoratedStacksPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	sp, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	for name, wl := range workloads {
		for _, traced := range []bool{false, true} {
			opts := options{workload: name, seed: 7, seconds: 2, trace: traced}
			if traced {
				opts.spans = filepath.Join(t.TempDir(), "spans.tsv")
			}
			rep := newReport()
			if err := wl.run(opts, rep); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if _, err := rep.result(sp, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if traced && name != "embedded-churn" {
				if fi, err := os.Stat(opts.spans); err != nil || fi.Size() == 0 {
					t.Errorf("%s: traced run wrote no spans (%v)", name, err)
				}
			}
		}
	}
}
