package main

import (
	"reflect"
	"strings"
	"testing"
)

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
		{"E1,P3", []string{"E1", "P3"}},
		{"g1, c1 ,e1", []string{"E1", "C1", "G1"}}, // any case, table order
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
