package main

import (
	"flag"
	"reflect"
	"testing"
)

func TestIgnoredFlags(t *testing.T) {
	parse := func(args ...string) *flag.FlagSet {
		fs := flag.NewFlagSet("congasim", flag.ContinueOnError)
		for _, name := range []string{"mode", "scheme", "seed", "fail", "leaves", "load"} {
			fs.String(name, "", "")
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	cases := []struct {
		args []string
		mode string
		want []string
	}{
		{[]string{"-mode", "fig2", "-fail", "9,9,9"}, "fig2", []string{"-fail"}},
		{[]string{"-mode", "fig3", "-load", "0.9", "-leaves", "4", "-scheme", "ecmp"}, "fig3", []string{"-leaves", "-load"}},
		{[]string{"-mode", "fig2", "-scheme", "local", "-seed", "3"}, "fig2", nil},
		{[]string{"-fail", "0,1,0", "-leaves", "4"}, "fct", nil},
	}
	for _, c := range cases {
		if got := ignoredFlags(parse(c.args...), c.mode); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v: ignoredFlags = %v, want %v", c.args, got, c.want)
		}
	}
}
