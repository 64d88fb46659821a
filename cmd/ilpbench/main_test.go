package main

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestParseProcs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
		err  string
	}{
		{in: "2,4,8", want: []int{2, 4, 8}},
		{in: " 1 , 3,", want: []int{1, 3}},
		{in: "2,x", err: `bad integer "x"`},
		{in: "", err: `-procs: empty list ""`},
		{in: "0", err: "-procs 0: a run needs at least 1 processor"},
		{in: "2,-1", err: "-procs -1: a run needs at least 1 processor"},
		{in: "2,2", err: `-procs: "2" repeats an earlier entry`},
		{in: "2,4,2", err: `-procs: "2" repeats an earlier entry`},
	} {
		got, err := parseProcs(tc.in)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("parseProcs(%q) = %v, %v; want error %q", tc.in, got, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseProcs(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestParseWidths(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
		err  string
	}{
		{in: "nolimit,10", want: []int{harness.WidthUnlimited, 10}},
		{in: "10, 0 ,5", want: []int{10, harness.WidthUnlimited, 5}},
		{in: "-3", err: `bad width "-3"`},
		{in: "wide", err: `bad width "wide"`},
		{in: ",", err: `-widths: empty list ","`},
		{in: "10,10", err: `-widths: "10" repeats an earlier entry`},
		{in: "nolimit,0", err: `-widths: "0" repeats an earlier entry`},
		{in: "0,5,nolimit", err: `-widths: "nolimit" repeats an earlier entry`},
	} {
		got, err := parseWidths(tc.in)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("parseWidths(%q) = %v, %v; want error %q", tc.in, got, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseWidths(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestRunAblationRefusesUnknownName checks the refusal comes before any
// learning: there are no datasets to learn on, and nothing is rendered.
func TestRunAblationRefusesUnknownName(t *testing.T) {
	var out strings.Builder
	err := runAblation(&out, "widths", nil, 0.05, 2, 1, io.Discard)
	want := `unknown ablation "widths" (have width, parcov, repartition, noise, balance)`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if out.Len() != 0 {
		t.Fatalf("rendered %q for an unknown ablation", out.String())
	}
}
