package perf

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// ParseBench extracts one numeric field from `go test -bench` output for the
// named benchmark. name is the benchmark's base name, sub-benchmarks as
// "BenchmarkOpenLoop/pagoda"; the -N GOMAXPROCS suffix the runtime appends is
// stripped before matching. field is "ns/op", "allocs/op" or "B/op" ("" means
// "ns/op").
func ParseBench(out []byte, name, field string) (float64, error) {
	if field == "" {
		field = "ns/op"
	}
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || benchBase(fields[0]) != name {
			continue
		}
		// fields[1] is the iteration count; the rest alternate value, unit.
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != field {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return 0, fmt.Errorf("perf: benchmark %s %s value %q: %v", name, field, fields[i], err)
			}
			return v, nil
		}
		return 0, fmt.Errorf("perf: benchmark %s has no %s column (run with -benchmem?): %q", name, field, line)
	}
	return 0, fmt.Errorf("perf: benchmark %s not found in output (%d bytes)", name, len(out))
}

// benchBase strips the -N GOMAXPROCS suffix from a benchmark result name
// ("BenchmarkEngineSchedule-8" -> "BenchmarkEngineSchedule"). Names without a
// numeric suffix (GOMAXPROCS=1 hosts print none) pass through unchanged.
func benchBase(s string) string {
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return s
	}
	if _, err := strconv.Atoi(s[i+1:]); err != nil {
		return s
	}
	return s[:i]
}

// reportDoc is the slice of the harness export schema the gate reads; it must
// stay unmarshalable from harness.Report's WriteJSON/WriteJSONAll output.
type reportDoc struct {
	ID     string             `json:"id"`
	Values map[string]float64 `json:"values"`
}

// ExtractReportValue reads pagodabench -format json output — one report
// document or a multi-experiment array — and returns the Values entry under
// key from the report with the given experiment id. An empty exp accepts a
// single document whatever its id.
func ExtractReportValue(out []byte, exp, key string) (float64, error) {
	var docs []reportDoc
	if err := json.Unmarshal(out, &docs); err != nil {
		var one reportDoc
		if err2 := json.Unmarshal(out, &one); err2 != nil {
			return 0, fmt.Errorf("perf: output is neither a report document nor an array: %v", err2)
		}
		docs = []reportDoc{one}
	}
	for _, d := range docs {
		if exp != "" && d.ID != exp {
			continue
		}
		v, ok := d.Values[key]
		if !ok {
			return 0, fmt.Errorf("perf: report %q has no values key %q", d.ID, key)
		}
		return v, nil
	}
	return 0, fmt.Errorf("perf: no report with id %q in output (%d documents)", exp, len(docs))
}

// ParseLastNumber reads the last non-empty line of a command's output as one
// number.
func ParseLastNumber(out []byte) (float64, error) {
	text := strings.TrimSpace(string(out))
	last := strings.TrimSpace(text[strings.LastIndexByte(text, '\n')+1:])
	v, err := strconv.ParseFloat(last, 64)
	if err != nil {
		return 0, fmt.Errorf("perf: last output line %q is not a number", last)
	}
	return v, nil
}
