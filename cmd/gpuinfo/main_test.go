package main

import (
	"strings"
	"testing"
)

// TestRenderSmoke runs the whole report and pins the §2 numbers it exists to
// show: the Titan X geometry and the two occupancy motivators.
func TestRenderSmoke(t *testing.T) {
	var sb strings.Builder
	render(&sb)
	out := sb.String()
	for _, want := range []string{
		"Simulated device: NVIDIA Maxwell Titan X",
		"0.52%",           // paper's single-narrow-task occupancy
		"16.67%",          // paper's 32-task HyperQ occupancy
		"occupancy: 100%", // MasterKernel launch fills the device
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q; got:\n%s", want, out)
		}
	}
}

// TestHelpExitsZero pins -h as a request, not a usage error: it prints the
// usage on stderr and exits 0 without printing the report.
func TestHelpExitsZero(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-h"}); code != 0 {
		t.Fatalf("run(-h) = %d, want 0 (stderr %q)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "usage: gpuinfo") || out.Len() != 0 {
		t.Errorf("-h printed stdout %q, stderr %q; want the usage on stderr only", out.String(), errw.String())
	}
}

// TestRejectsBadArgs: gpuinfo takes no flags and no arguments, so an
// undefined flag or a stray argument exits 2 with the usage on stderr and
// no report, while no arguments at all print the report and exit 0.
func TestRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"extra"}, {"--", "extra"}} {
		var out, errw strings.Builder
		if code := run(&out, &errw, args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if !strings.Contains(errw.String(), "usage: gpuinfo") || out.Len() != 0 {
			t.Errorf("run(%q) printed stdout %q, stderr %q; want the usage on stderr only", args, out.String(), errw.String())
		}
	}
	var out, errw strings.Builder
	if code := run(&out, &errw, nil); code != 0 || !strings.Contains(out.String(), "Simulated device") || errw.Len() != 0 {
		t.Errorf("run() = %d, stdout %q, stderr %q; want the report and exit 0", code, out.String(), errw.String())
	}
}
