package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testScale shrinks every workload to about a sixteenth of its timed size.
const testScale = 1.0 / 16

type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func runSmall(t *testing.T, workload string, trace bool, dir string) *report {
	t.Helper()
	rep, err := run(config{workload: workload, seed: 1, trace: trace, traceDir: dir, scale: testScale, minRounds: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

// checkNames requires exactly the declared metrics, each with its unit.
func checkNames(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics printed, %d declared", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s is not printed", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, declared %q", w.Name, m.Unit, w.Unit)
		}
	}
}

func TestDeclaredWorkloadsExist(t *testing.T) {
	var names []string
	for _, w := range readDeclared(t).Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json declares %v, the program has %v", names, workloadNames())
	}
}

// TestWorkloadsSmall runs every workload once untraced and once traced at
// a small size: the metrics are the declared ones, no cell fails, and both
// runs simulate the same records. Within the traced run the traced round
// must reproduce the untraced round's digests on inputs rebuilt from the
// seed, so this also covers the same seed twice.
func TestWorkloadsSmall(t *testing.T) {
	d := readDeclared(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a := runSmall(t, name, false, "")
			dir := t.TempDir()
			c := runSmall(t, name, true, dir)
			checkNames(t, a.Metrics, d.EndToEnd)
			checkNames(t, c.Metrics, d.PerLayer)

			if len(a.digests) == 0 || !reflect.DeepEqual(a.digests, c.digests) {
				t.Errorf("digests differ:\nuntraced %v\ntraced   %v", a.digests, c.digests)
			}
			for _, m := range d.EndToEnd {
				if v := a.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s is %v", m.Name, v)
				}
			}

			if n := c.Metrics["profile.samples"].Value; n > 0 {
				sum := 0.0
				for k, v := range c.Metrics {
					if strings.HasSuffix(k, "cpu_frac") {
						sum += v.Value
					}
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("CPU shares sum to %v over %v samples", sum, n)
				}
			}
			for _, f := range []string{name + ".spans.json", name + ".cpu.pprof"} {
				if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
					t.Errorf("trace file %s: %v", f, err)
				}
			}
		})
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{},
		{"--workload", "closed_batch", "--trace", "2"},
		{"--workload", "closed_batch", "--seconds", "-1"},
		{"--workload", "closed_batch", "extra"},
		{"--workload", "closed_batch", "--trace", "1", "--trace-dir", filepath.Join(notDir, "sub")},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q printed %q", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), strings.Join(workloadNames(), ", ")) {
			t.Errorf("%q: stderr does not list the workloads: %q", args, stderr.String())
		}
	}
}
