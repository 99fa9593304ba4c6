package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/runners"
)

var update = flag.Bool("update", false, "rewrite this package's entries in the report-digest corpus")

// reportDigests is the repository's committed output-digest corpus, shared
// with internal/harness's rendered reports.
const reportDigests = "../../internal/harness/testdata/report_digests.txt"

// TestRunSmoke drives the command end to end on a small Mandelbrot config
// and checks the written file is a non-empty Chrome trace-event array.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	var sb strings.Builder
	if err := run(&sb, []string{"-bench", "MB", "-tasks", "16", "-smms", "4", "-o", out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ran 16 MB tasks") {
		t.Errorf("summary missing task count: %q", sb.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
}

// TestRunRejectsUnknownBench pins the error path.
func TestRunRejectsUnknownBench(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{"-bench", "NOPE", "-o", filepath.Join(t.TempDir(), "t.json")}); err == nil {
		t.Fatal("run accepted an unknown workload")
	}
}

// TestRunRejectsBadFlags pins input validation: every bad flag combination
// returns a usage error (main exits 2 on it) before anything runs, never a
// panic and never a silent fall-back to another mode. A bad -rate is named
// as typed, not as a mode scaled it.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // in the message, when set
	}{
		{"negative_nodes", []string{"-nodes", "-3"}, ""},
		{"negative_tenants", []string{"-tenants", "-1"}, ""},
		{"negative_tasks", []string{"-tasks", "-1"}, ""},
		{"zero_smms", []string{"-smms", "0"}, ""},
		{"threads_over_mtb", []string{"-threads", "5000"}, ""},
		{"negative_threads", []string{"-threads", "-3"}, ""},
		{"tenants_over_tasks", []string{"-tenants", "50", "-tasks", "10"}, ""},
		{"undefined_flag", []string{"-bogus"}, ""},
		{"cluster_zero_rate", []string{"-nodes", "2", "-rate", "0"}, "-rate 0 "},
		{"cluster_nan_rate", []string{"-nodes", "2", "-rate", "NaN"}, "-rate NaN "},
		{"autoscale_zero_rate", []string{"-autoscale", "reactive", "-rate", "0"}, "-rate 0 "},
		{"autoscale_equal_bounds", []string{"-autoscale", "reactive", "-minnodes", "2", "-maxnodes", "2"}, ""},
		{"tenant_negative_rate", []string{"-tenants", "3", "-rate", "-5"}, "-rate -5 "},
		{"cluster_negative_rate", []string{"-nodes", "2", "-rate", "-1"}, "-rate -1 "},
		{"cluster_overflowing_rate", []string{"-nodes", "2", "-rate", "1e308"}, "-rate 1e+308 "},
		{"tenant_overflowing_rate", []string{"-tenants", "2", "-rate", "1e308"}, "-rate 1e+308 "},
		{"autoscale_infinite_rate", []string{"-autoscale", "reactive", "-rate", "+Inf"}, "-rate +Inf "},
		{"tenant_short_horizon", []string{"-tenants", "3", "-tasks", "3", "-rate", "1e9"}, "-tasks 3 over -tenants 3 at -rate 1e+09 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "t.json")
			var sb strings.Builder
			err := run(&sb, append([]string{"-tasks", "16", "-smms", "4", "-o", out}, tc.args...))
			var ue usageError
			if !errors.As(err, &ue) {
				t.Fatalf("run(%v) = %v, want a usage error", tc.args, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %q, want it to name %q", tc.args, err, tc.want)
			}
			if _, statErr := os.Stat(out); statErr == nil {
				t.Error("a rejected run wrote a trace file")
			}
		})
	}
}

// TestExitCodes pins main's exit status: 0 on success and on -h, 2 on a
// usage error, 1 on any other failure (here an unwritable -o).
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"help", []string{"-h"}, 0},
		{"ok", []string{"-o", filepath.Join(dir, "t.json")}, 0},
		{"usage", []string{"-tasks", "-1"}, 2},
		{"unwritable", []string{"-o", filepath.Join(dir, "missing", "t.json")}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			err := run(&sb, append([]string{"-tasks", "16", "-smms", "4"}, tc.args...))
			if got := exitCode(io.Discard, err); got != tc.want {
				t.Fatalf("exit code for %v = %d (err %v), want %d", tc.args, got, err, tc.want)
			}
		})
	}
}

// TestClusterTraceSmoke drives cluster mode end to end: a 2-node fleet must
// write one wait/service track per node (stable "node%02d/" prefixes) and
// print a summary grouped by node.
func TestClusterTraceSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fleet.json")
	var sb strings.Builder
	err := run(&sb, []string{"-bench", "MB", "-tasks", "16", "-smms", "4",
		"-nodes", "2", "-policy", "rr", "-scheme", "pagoda", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 pagoda nodes", "node00/serve-pagoda", "node01/serve-pagoda", "routed 8"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("cluster trace is not a JSON array: %v", err)
	}
	names := map[string]bool{}
	for _, e := range events {
		if e["ph"] == "M" {
			if args, ok := e["args"].(map[string]any); ok {
				names[args["name"].(string)] = true
			}
		}
	}
	for _, want := range []string{"node00/serve-pagoda", "node01/serve-pagoda"} {
		if !names[want] {
			t.Errorf("trace missing track %q (have %v)", want, names)
		}
	}
}

// TestClusterTraceEverySchemeAccepted pins cluster mode to the scheme
// registry: a scheme registered in runners.Schemes() must trace without any
// pagodatrace change (the old hand-written switch silently excluded new
// schemes — zorua was the one that flushed it out).
func TestClusterTraceEverySchemeAccepted(t *testing.T) {
	for _, key := range runners.SchemeKeys() {
		out := filepath.Join(t.TempDir(), key+".json")
		var sb strings.Builder
		err := run(&sb, []string{"-bench", "MB", "-tasks", "8", "-smms", "4",
			"-nodes", "2", "-scheme", key, "-o", out})
		if err != nil {
			t.Errorf("scheme %q: %v", key, err)
			continue
		}
		if !strings.Contains(sb.String(), "node00/serve-"+key) {
			t.Errorf("scheme %q summary missing its node track:\n%s", key, sb.String())
		}
	}
}

// TestTenantTraceSmoke drives tenant mode end to end: three tenant classes
// must write one wait/service track per tenant and print a per-tenant
// outcome summary with the offered/served/shed split.
func TestTenantTraceSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tenants.json")
	var sb strings.Builder
	err := run(&sb, []string{"-bench", "XFMR", "-tasks", "96", "-smms", "4",
		"-tenants", "3", "-admit", "strict", "-scheme", "pagoda", "-rate", "192e3", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"3 tenants", "strict admission",
		"tenant-premium/serve-pagoda", "tenant-standard/serve-pagoda", "tenant-batch/serve-pagoda",
		"offered 32"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("tenant trace is not a JSON array: %v", err)
	}
	names := map[string]bool{}
	for _, e := range events {
		if e["ph"] == "M" {
			if args, ok := e["args"].(map[string]any); ok {
				names[args["name"].(string)] = true
			}
		}
	}
	for _, want := range []string{"tenant-premium/serve-pagoda", "tenant-standard/serve-pagoda"} {
		if !names[want] {
			t.Errorf("trace missing track %q (have %v)", want, names)
		}
	}
}

// TestTenantTraceRejectsBadFlags pins tenant-mode validation: the two stream
// modes are mutually exclusive and an unknown admission policy fails fast.
func TestTenantTraceRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	tmp := filepath.Join(t.TempDir(), "t.json")
	var ue usageError
	if err := run(&sb, []string{"-nodes", "2", "-tenants", "2", "-o", tmp}); !errors.As(err, &ue) {
		t.Errorf("run with -nodes together with -tenants = %v, want a usage error", err)
	}
	if err := run(&sb, []string{"-tenants", "2", "-admit", "nope", "-o", tmp}); !errors.As(err, &ue) {
		t.Errorf("run with an unknown admission policy = %v, want a usage error", err)
	}
	if err := run(&sb, []string{"-tenants", "2", "-scheme", "nope", "-o", tmp}); !errors.As(err, &ue) {
		t.Errorf("tenant mode with an unknown scheme = %v, want a usage error", err)
	}
}

// TestClusterTraceRejectsUnknownSchemeAndPolicy pins cluster-mode validation.
func TestClusterTraceRejectsUnknownSchemeAndPolicy(t *testing.T) {
	var sb strings.Builder
	tmp := filepath.Join(t.TempDir(), "t.json")
	var ue usageError
	if err := run(&sb, []string{"-nodes", "2", "-scheme", "nope", "-o", tmp}); !errors.As(err, &ue) {
		t.Errorf("run with an unknown scheme = %v, want a usage error", err)
	}
	if err := run(&sb, []string{"-nodes", "2", "-policy", "nope", "-o", tmp}); !errors.As(err, &ue) {
		t.Errorf("run with an unknown policy = %v, want a usage error", err)
	}
}

// TestAutoscaleTraceSmoke drives elastic mode end to end: the written trace
// must carry the per-node serve tracks plus a "fleet/scale" track whose
// warmup/active/drain spans show each node's lifecycle, and the summary must
// report the scale-event and node-seconds ledger.
func TestAutoscaleTraceSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "elastic.json")
	var sb strings.Builder
	err := run(&sb, []string{"-bench", "MB", "-tasks", "128", "-smms", "4",
		"-autoscale", "reactive", "-minnodes", "1", "-maxnodes", "4", "-scheme", "pagoda", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"elastic 1..4 pagoda fleet", "reactive scaling",
		"fleet/scale:", "scale-outs", "node-seconds", "node00/serve-pagoda"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("elastic trace is not a JSON array: %v", err)
	}
	cats := map[string]int{}
	tracks := map[string]bool{}
	for _, e := range events {
		if c, ok := e["cat"].(string); ok {
			cats[c]++
		}
		if e["ph"] == "M" {
			if args, ok := e["args"].(map[string]any); ok {
				tracks[args["name"].(string)] = true
			}
		}
	}
	if !tracks["fleet/scale"] {
		t.Errorf("trace missing the fleet/scale track (have %v)", tracks)
	}
	if cats["active"] == 0 {
		t.Errorf("fleet/scale track has no active spans: %v", cats)
	}
	if cats["warmup"] == 0 {
		t.Errorf("no warm-up span despite a 1..4 elastic run: %v", cats)
	}
}

// TestTraceModesByteIdentical runs the plain closed-loop, fleet, tenant and
// elastic modes twice each: the trace files and the printed summaries must
// match byte for byte, and match the digests committed in reportDigests.
func TestTraceModesByteIdentical(t *testing.T) {
	modes := map[string][]string{
		"plain":     {"-bench", "MB", "-tasks", "48", "-smms", "4"},
		"nodes":     {"-bench", "MB", "-tasks", "48", "-smms", "4", "-nodes", "8"},
		"tenants":   {"-bench", "XFMR", "-tasks", "48", "-smms", "4", "-tenants", "3", "-rate", "192e3"},
		"autoscale": {"-bench", "MB", "-tasks", "96", "-smms", "4", "-autoscale", "reactive", "-minnodes", "1", "-maxnodes", "4"},
	}
	for _, mode := range []string{"plain", "nodes", "tenants", "autoscale"} {
		t.Run(mode, func(t *testing.T) {
			var files [2][]byte
			var summaries [2]string
			for i := range files {
				out := filepath.Join(t.TempDir(), "t.json")
				var sb strings.Builder
				if err := run(&sb, append(modes[mode], "-o", out)); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				files[i] = data
				summaries[i] = strings.ReplaceAll(sb.String(), out, "<out>")
			}
			if !bytes.Equal(files[0], files[1]) {
				t.Error("two runs wrote different trace bytes")
			}
			if summaries[0] != summaries[1] {
				t.Errorf("two runs printed different summaries:\n%s\n%s", summaries[0], summaries[1])
			}
			golden.Check(t, reportDigests, "pagodatrace/"+mode+".trace", files[0], *update)
			golden.Check(t, reportDigests, "pagodatrace/"+mode+".summary", []byte(summaries[0]), *update)
		})
	}
}

// TestAutoscaleTraceRejectsBadFlags pins elastic-mode validation: -autoscale
// is exclusive with -tenants, bounds must form a range, and unknown scaling
// policies fail fast.
func TestAutoscaleTraceRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	tmp := filepath.Join(t.TempDir(), "t.json")
	if err := run(&sb, []string{"-autoscale", "reactive", "-tenants", "2", "-o", tmp}); err == nil {
		t.Error("run accepted -autoscale together with -tenants")
	}
	if err := run(&sb, []string{"-autoscale", "reactive", "-minnodes", "5", "-maxnodes", "2", "-o", tmp}); err == nil {
		t.Error("run accepted inverted fleet bounds")
	}
	if err := run(&sb, []string{"-autoscale", "nope", "-o", tmp}); err == nil {
		t.Error("run accepted an unknown scaling policy")
	}
}
