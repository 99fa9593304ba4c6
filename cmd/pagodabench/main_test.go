package main

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

// TestListSmoke pins the experiment registry the CLI advertises.
func TestListSmoke(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-list"}); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, errw.String())
	}
	for _, id := range []string{"table3", "fig5", "cpuschemes"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %q:\n%s", id, out.String())
		}
	}
}

// TestRunSmoke regenerates the cheapest experiment at a tiny scale and
// checks a recognizable report comes out in each format.
func TestRunSmoke(t *testing.T) {
	for _, format := range []string{"text", "csv"} {
		var out, errw strings.Builder
		code := run(&out, &errw, []string{"-exp", "cpuschemes", "-tasks", "64", "-format", format})
		if code != 0 {
			t.Fatalf("run(cpuschemes, %s) = %d, stderr %q", format, code, errw.String())
		}
		if !strings.Contains(out.String(), "OpenMP") {
			t.Errorf("%s report missing the OpenMP scheme:\n%s", format, out.String())
		}
	}
}

// TestMultiExperimentJSONIsOneDocument pins the -format json fix: a
// multi-experiment run must emit a single JSON array, not a concatenation of
// documents no standard parser accepts.
func TestMultiExperimentJSONIsOneDocument(t *testing.T) {
	var out, errw strings.Builder
	code := run(&out, &errw, []string{"-exp", "table3,cpuschemes", "-tasks", "48", "-smms", "4", "-format", "json"})
	if code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errw.String())
	}
	var reps []struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out.String()), &reps); err != nil {
		t.Fatalf("multi-experiment JSON is not one parseable document: %v", err)
	}
	if len(reps) != 2 || reps[0].ID != "table3" || reps[1].ID != "cpuschemes" {
		t.Fatalf("json array = %+v, want table3 then cpuschemes", reps)
	}
	if len(reps[0].Rows) == 0 || len(reps[1].Rows) == 0 {
		t.Fatalf("empty rows in %+v", reps)
	}
}

// TestMultiExperimentCSVIsOneStream pins the -format csv companion fix: one
// stream with a leading "experiment" column, parseable end to end.
func TestMultiExperimentCSVIsOneStream(t *testing.T) {
	var out, errw strings.Builder
	code := run(&out, &errw, []string{"-exp", "table3,cpuschemes", "-tasks", "48", "-smms", "4", "-format", "csv"})
	if code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errw.String())
	}
	rd := csv.NewReader(strings.NewReader(out.String()))
	rd.FieldsPerRecord = -1 // column sets differ per experiment
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("multi-experiment CSV not parseable: %v", err)
	}
	ids := map[string]bool{}
	for _, rec := range recs {
		ids[rec[0]] = true
	}
	for _, want := range []string{"experiment", "table3", "cpuschemes"} {
		if !ids[want] {
			t.Errorf("csv stream missing %q in its experiment column: %v", want, ids)
		}
	}
}

// TestParallelFlagOutputIdentical drives the CLI end to end: -parallel 4
// must produce byte-identical output to -parallel 1 (csv format, which has
// no wall-clock timing line).
func TestParallelFlagOutputIdentical(t *testing.T) {
	outs := make([]string, 2)
	for i, par := range []string{"1", "4"} {
		var out, errw strings.Builder
		code := run(&out, &errw, []string{"-exp", "table3,cpuschemes", "-tasks", "48", "-smms", "4",
			"-format", "csv", "-parallel", par})
		if code != 0 {
			t.Fatalf("run(-parallel %s) = %d, stderr %q", par, code, errw.String())
		}
		outs[i] = out.String()
	}
	if outs[0] != outs[1] {
		t.Errorf("-parallel 4 output differs from -parallel 1:\n--- 1 ---\n%s\n--- 4 ---\n%s", outs[0], outs[1])
	}
}

// TestExpListCleanup pins the -exp list fixes: trailing commas, surrounding
// whitespace and duplicate ids must all resolve to one clean run.
func TestExpListCleanup(t *testing.T) {
	cases := []struct {
		name, expr string
	}{
		{"trailing comma", "cpuschemes,"},
		{"whitespace", " cpuschemes , table3 "},
		{"duplicates", "cpuschemes,cpuschemes,table3,cpuschemes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errw strings.Builder
			code := run(&out, &errw, []string{"-exp", c.expr, "-tasks", "48", "-smms", "4", "-format", "csv"})
			if code != 0 {
				t.Fatalf("run(-exp %q) = %d, stderr %q", c.expr, code, errw.String())
			}
			if !strings.Contains(out.String(), "OpenMP") {
				t.Errorf("cleaned run missing cpuschemes output:\n%s", out.String())
			}
		})
	}
	// Dedup must mean exactly one run: a doubled id emits its header once.
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-exp", "cpuschemes,cpuschemes", "-tasks", "48", "-smms", "4", "-format", "csv"}); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errw.String())
	}
	if n := strings.Count(out.String(), "Benchmark,OpenMP"); n != 1 {
		t.Errorf("duplicate id ran %d times, want 1:\n%s", n, out.String())
	}
}

// TestExpListErrors pins the empty-list and unknown-id error paths; the
// unknown-id message must teach the valid set.
func TestExpListErrors(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-exp", ",,"}); code != 2 {
		t.Fatalf("run(-exp ,,) = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "names no experiments") {
		t.Errorf("stderr = %q, want empty-list error", errw.String())
	}
	errw.Reset()
	if code := run(&out, &errw, []string{"-exp", "fig5,bogus"}); code != 2 {
		t.Fatalf("run(-exp fig5,bogus) = %d, want 2", code)
	}
	for _, want := range []string{"unknown experiment", `"bogus"`, "fig5", "cpuschemes", "all"} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("unknown-id error %q missing %q", errw.String(), want)
		}
	}
}

// TestTextStdoutByteIdentical pins the stdout-purity fix: text mode was the
// one format whose output varied run to run, because the timing footer
// interpolated wall clock into stdout. The footer now goes to stderr, so two
// identical invocations must produce identical stdout.
func TestTextStdoutByteIdentical(t *testing.T) {
	outs := make([]string, 2)
	for i := range outs {
		var out, errw strings.Builder
		code := run(&out, &errw, []string{"-exp", "table3,cpuschemes", "-tasks", "48", "-smms", "4"})
		if code != 0 {
			t.Fatalf("run = %d, stderr %q", code, errw.String())
		}
		if !strings.Contains(errw.String(), "regenerated in") {
			t.Errorf("timing footer missing from stderr: %q", errw.String())
		}
		if strings.Contains(out.String(), "regenerated in") {
			t.Errorf("timing footer leaked into stdout:\n%s", out.String())
		}
		outs[i] = out.String()
	}
	if outs[0] != outs[1] {
		t.Errorf("text stdout differs between runs:\n--- 1 ---\n%s\n--- 2 ---\n%s", outs[0], outs[1])
	}
}

// TestRunRejectsUnknownExperiment pins the error path and exit code.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-exp", "fig99"}); code != 2 {
		t.Fatalf("run(fig99) = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "unknown experiment") {
		t.Errorf("stderr = %q, want unknown-experiment error", errw.String())
	}
}

// TestClusterFlagsAndSeedExport drives the cluster experiment through the
// CLI: -nodes/-policy select the fleet, and the JSON export names the seed
// that produced the arrival streams.
func TestClusterFlagsAndSeedExport(t *testing.T) {
	var out, errw strings.Builder
	code := run(&out, &errw, []string{"-exp", "cluster_policy", "-tasks", "48", "-smms", "4",
		"-nodes", "2", "-policy", "p2c", "-seed", "7", "-format", "json"})
	if code != 0 {
		t.Fatalf("run(cluster_policy) = %d, stderr %q", code, errw.String())
	}
	var rep struct {
		ID   string     `json:"id"`
		Seed int64      `json:"seed"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("cluster JSON not parseable: %v", err)
	}
	if rep.ID != "cluster_policy" || rep.Seed != 7 || len(rep.Rows) == 0 {
		t.Fatalf("report = id %q seed %d rows %d, want cluster_policy/7/>0", rep.ID, rep.Seed, len(rep.Rows))
	}
}

// TestClusterCSVCarriesSeedRow pins the CSV side of the seed export: seeded
// experiments end with a "# seed,<n>" row.
func TestClusterCSVCarriesSeedRow(t *testing.T) {
	var out, errw strings.Builder
	code := run(&out, &errw, []string{"-exp", "cluster_scaling", "-tasks", "48", "-smms", "4",
		"-seed", "9", "-format", "csv"})
	if code != 0 {
		t.Fatalf("run(cluster_scaling) = %d, stderr %q", code, errw.String())
	}
	rd := csv.NewReader(strings.NewReader(out.String()))
	rd.FieldsPerRecord = -1
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("cluster CSV not parseable: %v", err)
	}
	last := recs[len(recs)-1]
	if len(last) != 2 || last[0] != "# seed" || last[1] != "9" {
		t.Errorf("last CSV row = %v, want [# seed 9]", last)
	}
}

// TestSeedZeroExported pins the -seed 0 provenance fix through the CLI: an
// explicit zero seed is still a seed, and the artifact must name it.
func TestSeedZeroExported(t *testing.T) {
	var out, errw strings.Builder
	code := run(&out, &errw, []string{"-exp", "cluster_scaling", "-tasks", "48", "-smms", "4",
		"-seed", "0", "-format", "csv"})
	if code != 0 {
		t.Fatalf("run(-seed 0) = %d, stderr %q", code, errw.String())
	}
	rd := csv.NewReader(strings.NewReader(out.String()))
	rd.FieldsPerRecord = -1
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if len(last) != 2 || last[0] != "# seed" || last[1] != "0" {
		t.Errorf("last CSV row = %v, want [# seed 0]", last)
	}
}

// TestRejectsUnknownPolicy pins the -policy validation path.
func TestRejectsUnknownPolicy(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-exp", "cluster_policy", "-policy", "bogus"}); code != 2 {
		t.Fatalf("run(-policy bogus) = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "bogus") {
		t.Errorf("stderr = %q, want unknown-policy error", errw.String())
	}
}

// TestRejectsUnknownScheme pins the -scheme validation path: an unknown
// scheme name fails before any simulation runs, exit 2, and the error
// teaches the valid set.
func TestRejectsUnknownScheme(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-exp", "serve_capacity", "-scheme", "pagoda,bogus"}); code != 2 {
		t.Fatalf("run(-scheme pagoda,bogus) = %d, want 2", code)
	}
	for _, want := range []string{"unknown scheme", `"bogus"`, "hyperq", "gemtc", "pagoda", "zorua"} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("unknown-scheme error %q missing %q", errw.String(), want)
		}
	}
	errw.Reset()
	if code := run(&out, &errw, []string{"-exp", "serve_capacity", "-scheme", ",,"}); code != 2 {
		t.Fatalf("run(-scheme ,,) = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "names no schemes") {
		t.Errorf("stderr = %q, want empty-list error", errw.String())
	}
}

// TestSchemeFilterRestrictsSweep drives -scheme end to end: a filtered
// serve_capacity run reports exactly the named schemes, in registry order.
func TestSchemeFilterRestrictsSweep(t *testing.T) {
	var out, errw strings.Builder
	code := run(&out, &errw, []string{"-exp", "serve_capacity", "-tasks", "32", "-smms", "4",
		"-scheme", "zorua,pagoda", "-format", "csv"})
	if code != 0 {
		t.Fatalf("run(-scheme zorua,pagoda) = %d, stderr %q", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"Pagoda", "Zorua"} {
		if !strings.Contains(got, want) {
			t.Errorf("filtered sweep missing %s:\n%s", want, got)
		}
	}
	for _, banned := range []string{"CUDA-HyperQ", "GeMTC"} {
		if strings.Contains(got, banned) {
			t.Errorf("filtered sweep still ran %s:\n%s", banned, got)
		}
	}
}

// TestRejectsBadFleetFlags pins the flag-validation satellite: impossible
// fleet shapes fail before any simulation runs, exit 2, with a message that
// names the offending value.
func TestRejectsBadFleetFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"nodes zero", []string{"-exp", "cluster_policy", "-nodes", "0"}, "at least one node"},
		{"nodes negative", []string{"-exp", "cluster_policy", "-nodes", "-3"}, "at least one node"},
		{"oversub below one", []string{"-exp", "oversub_sweep", "-oversub", "0.5"}, "under-provision"},
		{"minnodes zero", []string{"-exp", "cluster_autoscale", "-minnodes", "0"}, "lower bound"},
		{"inverted bounds", []string{"-exp", "cluster_autoscale", "-minnodes", "8", "-maxnodes", "2"}, "inverted"},
		{"unknown autoscale policy", []string{"-exp", "cluster_autoscale", "-autoscale", "bogus"}, "reactive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errw strings.Builder
			if code := run(&out, &errw, c.args); code != 2 {
				t.Fatalf("run(%v) = %d, want 2 (stderr %q)", c.args, code, errw.String())
			}
			if !strings.Contains(errw.String(), c.want) {
				t.Errorf("stderr = %q, want mention of %q", errw.String(), c.want)
			}
		})
	}
	// The boundary values stay legal: -oversub 1 is physical admission and
	// -minnodes equal to -maxnodes is a fixed fleet.
	var out, errw strings.Builder
	code := run(&out, &errw, []string{"-exp", "cluster_autoscale", "-tasks", "48", "-smms", "4",
		"-minnodes", "2", "-maxnodes", "2", "-scheme", "gemtc", "-autoscale", "reactive", "-format", "csv"})
	if code != 0 {
		t.Fatalf("run(minnodes=maxnodes) = %d, stderr %q", code, errw.String())
	}
}

// TestAutoscaleFlagsReachExperiment drives -minnodes/-maxnodes/-autoscale end
// to end: the report header names the bounds and only the chosen policy runs.
func TestAutoscaleFlagsReachExperiment(t *testing.T) {
	var out, errw strings.Builder
	code := run(&out, &errw, []string{"-exp", "cluster_autoscale", "-tasks", "48", "-smms", "4",
		"-minnodes", "1", "-maxnodes", "3", "-autoscale", "predictive", "-scheme", "hyperq", "-format", "csv"})
	if code != 0 {
		t.Fatalf("run(cluster_autoscale) = %d, stderr %q", code, errw.String())
	}
	got := out.String()
	if !strings.Contains(got, "predictive") {
		t.Errorf("filtered run missing the predictive policy:\n%s", got)
	}
	if strings.Contains(got, "reactive") {
		t.Errorf("-autoscale predictive still ran reactive:\n%s", got)
	}
}

// TestRunRejectsBadFlags pins the usage errors outside the fleet flags: a bad
// value exits 2 with a message naming the flag, before any experiment runs,
// and never falls back to a default.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"negative_tasks", []string{"-tasks", "-3"}, "-tasks -3"},
		{"negative_smms", []string{"-smms", "-1"}, "-smms -1"},
		{"negative_slo", []string{"-slo", "-5"}, "-slo -5"},
		{"nan_slo", []string{"-slo", "NaN"}, "-slo NaN"},
		{"negative_parallel", []string{"-parallel", "-2"}, "-parallel -2"},
		{"misbehave_below_honest", []string{"-misbehave", "-2"}, "-misbehave -2"},
		{"misbehave_past_tenants", []string{"-misbehave", "7", "-tenants", "3"}, "-misbehave 7"},
		{"misbehave_at_tenants", []string{"-misbehave", "3", "-tenants", "3"}, "-misbehave 3"},
		{"zero_tenants", []string{"-tenants", "0"}, "-tenants 0"},
		{"nan_oversub", []string{"-oversub", "NaN"}, "-oversub NaN"},
		{"inf_oversub", []string{"-oversub", "Inf"}, "-oversub +Inf"},
		{"negative_inf_oversub", []string{"-oversub", "-Inf"}, "-oversub -Inf"},
		{"overflowing_oversub", []string{"-oversub", "1e300"}, "past the largest int"},
		{"undefined_flag", []string{"-bogus"}, "bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			if code := run(&out, &errw, append([]string{"-exp", "tenant_qos"}, tc.args...)); code != 2 {
				t.Fatalf("run(%v) = %d, want 2 (stderr %q)", tc.args, code, errw.String())
			}
			if !strings.Contains(errw.String(), tc.want) {
				t.Errorf("stderr = %q, want mention of %q", errw.String(), tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("a rejected run printed a report:\n%s", out.String())
			}
		})
	}
}

// TestHelpExitsZero pins -h as a request, not a usage error: it prints the
// flags and exits 0 without running an experiment.
func TestHelpExitsZero(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, []string{"-h"}); code != 0 {
		t.Fatalf("run(-h) = %d, want 0 (stderr %q)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "-exp") || out.Len() != 0 {
		t.Errorf("-h printed stdout %q, stderr %q; want the usage on stderr only", out.String(), errw.String())
	}
}

// TestMisbehaveSelectsClass drives -misbehave end to end: class 0 (premium)
// can be chosen, and -1 makes every class honest.
func TestMisbehaveSelectsClass(t *testing.T) {
	for _, tc := range []struct{ flag, want string }{
		{"0", "class 0 at 10x contract"},
		{"-1", "all classes honest"},
	} {
		var out, errw strings.Builder
		code := run(&out, &errw, []string{"-exp", "tenant_qos", "-tasks", "48", "-smms", "4",
			"-scheme", "gemtc", "-misbehave", tc.flag})
		if code != 0 {
			t.Fatalf("-misbehave %s: exit %d, stderr %q", tc.flag, code, errw.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("-misbehave %s: title lacks %q:\n%s", tc.flag, tc.want, out.String())
		}
	}
}
