// Package golden checks rendered outputs against a committed corpus of
// FNV-64a digests, so a change that moves a single report or trace byte
// fails `go test` instead of waiting for a hand-run cmp against the parent.
//
// A corpus file holds one "<key> <16 hex digits>" line per output, sorted by
// key. Several test packages may share one file as long as their keys differ.
// Tests rewrite entries only when asked to (their -update flag); review the
// diff before committing it. Updating merges: entries for keys the run did
// not produce are kept, so delete stale lines by hand.
package golden

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Digest returns the FNV-64a of b as 16 hex digits.
func Digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Check compares the digest of out with the entry for key in the corpus at
// path. With update set it records the digest instead. Packages sharing one
// file must then be updated one at a time (go test -p 1), since each rewrite
// is a read-merge-write of the whole file.
func Check(t testing.TB, path, key string, out []byte, update bool) {
	t.Helper()
	if strings.ContainsAny(key, " \n") {
		t.Fatalf("golden: key %q contains a space or newline", key)
	}
	entries, err := read(path)
	if err != nil && !(update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	got := Digest(out)
	if update {
		if entries == nil {
			entries = map[string]string{}
		}
		entries[key] = got
		if err := write(path, entries); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := entries[key]
	switch {
	case !ok:
		t.Errorf("golden: no digest for %q in %s; rerun with -update and review the diff", key, path)
	case want != got:
		t.Errorf("golden: %s digest %s, corpus %s has %s: the output changed", key, got, path, want)
	}
}

func read(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	entries := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			return nil, fmt.Errorf("golden: %s:%d: want \"<key> <digest>\"", path, n)
		}
		entries[f[0]] = f[1]
	}
	return entries, sc.Err()
}

func write(path string, entries map[string]string) error {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&buf, "%s %s\n", k, entries[k])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
