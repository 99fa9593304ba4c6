package main

import (
	"os"
	"os/exec"
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

// TestHelpExitsZero runs main in a child copy of the test binary with -h:
// gpuinfo takes no flags, so -h must print the report and exit 0.
func TestHelpExitsZero(t *testing.T) {
	if os.Getenv("GPUINFO_RUN_MAIN") == "1" {
		os.Args = []string{"gpuinfo", "-h"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelpExitsZero$")
	cmd.Env = append(os.Environ(), "GPUINFO_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("gpuinfo -h: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Simulated device") {
		t.Errorf("gpuinfo -h printed no report:\n%s", out)
	}
}
