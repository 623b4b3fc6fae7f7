package ripplestudy_test

import (
	"context"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun runs each walkthrough under examples/ with go run and
// requires a clean exit and the line README quotes for it, so a
// walkthrough that still compiles but has stopped doing what README says
// fails here.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs five programs")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	for name, want := range map[string]string{
		"quickstart":   "Bob paid Alice 10/USD (tesSUCCESS, 1 intermediate hop)",
		"latte":        "Bob's lifetime USD spending, reconstructed: ",
		"marketmakers": "the same payment without market makers: tecPATH_DRY",
		"monitor":      "matches the fault-free in-process collection exactly",
		"robustness":   "forks are impossible above 2×(1−quorum) = 40% overlap.",
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			out, err := exec.CommandContext(ctx, goTool, "run", "./examples/"+name).CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
			}
			if !strings.Contains(string(out), want) {
				t.Errorf("go run ./examples/%s does not print %q:\n%s", name, want, out)
			}
		})
	}
}
