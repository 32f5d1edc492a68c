package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this run")

func ids(rs []runner) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.id
	}
	return out
}

func TestSelectRunners(t *testing.T) {
	for _, tc := range []struct {
		only string
		want []string
	}{
		{"E1,P5", []string{"E1", "P5"}},
		{"c1, a1 ,e1", []string{"E1", "A1", "C1"}}, // any case, table order
		{" a2 ,, A2", []string{"A2"}},
	} {
		got, err := selectRunners(tc.only)
		if err != nil {
			t.Fatalf("%q: %v", tc.only, err)
		}
		if !reflect.DeepEqual(ids(got), tc.want) {
			t.Errorf("%q selected %v, want %v", tc.only, ids(got), tc.want)
		}
	}

	for _, only := range []string{"", " , "} {
		got, err := selectRunners(only)
		if err != nil || len(got) != len(runners) {
			t.Errorf("%q selected %d runners (%v), want all %d", only, len(got), err, len(runners))
		}
	}

	_, err := selectRunners("E1,p1,Ex9")
	if err == nil {
		t.Fatal("unknown ids selected without error")
	}
	msg := err.Error()
	for _, want := range []string{"EX9,P1;", "valid ids: " + strings.Join(ids(runners), ",")} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not contain %q", msg, want)
		}
	}
}

// TestGolden pins the paper's case studies: the tables of the experiments
// that run on a fixed virtual epoch, printed as benchrunner prints them,
// must equal testdata/tables.golden line for line. Only the wall-time
// notes are left out. After a change that means to move a number,
// regenerate the file with
//
//	go test ./cmd/benchrunner -run TestGolden -update
//
// and say in the change why the number moved.
func TestGolden(t *testing.T) {
	sel, err := selectRunners("E1,E2,E3,E4,E5,E6,P5,A2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range sel {
		tab, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.id, err)
		}
		tab.Fprint(&buf)
	}
	var kept []string
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.Contains(line, "wall time") {
			kept = append(kept, line)
		}
	}
	got := strings.Join(kept, "")

	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of file)"
	}
	t.Fatalf("%s:%d differs (-update rewrites it)\n got: %q\nwant: %q", path, i+1, line(g), line(w))
}
