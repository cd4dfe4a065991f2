package main

import (
	"fmt"
	"io"

	"xehe/internal/fhebench"
	"xehe/internal/gpu"
)

type tables = func() []*fhebench.Table

func one(f func() *fhebench.Table) tables {
	return func() []*fhebench.Table { return []*fhebench.Table{f()} }
}

func perDevice(f func(gpu.DeviceSpec) *fhebench.Table) tables {
	return func() []*fhebench.Table { return []*fhebench.Table{f(gpu.Device1Spec()), f(gpu.Device2Spec())} }
}

// figures is the paper's evaluation in print order; -fig takes one of
// these names or "all".
var figures = []struct {
	name   string
	tables tables
}{
	{"5", perDevice(fhebench.Fig5)}, {"12", fhebench.Fig12}, {"13", fhebench.Fig13},
	{"14a", one(fhebench.Fig14a)}, {"14b", one(fhebench.Fig14b)}, {"15", one(fhebench.Fig15)},
	{"16", one(fhebench.Fig16)}, {"17", one(fhebench.Fig17)}, {"18", one(fhebench.Fig18)},
	{"19", perDevice(fhebench.Fig19)}, {"scaling", one(fhebench.ScalingStudy)},
}

// printFigures prints Table I (-tab 1, or with every figure) and the
// selected figures, each followed by a blank line.
func printFigures(w io.Writer, fig, tab string) {
	if tab == "1" || fig == "all" {
		fmt.Fprintln(w, fhebench.Table1())
	}
	for _, f := range figures {
		if fig != "all" && fig != f.name {
			continue
		}
		for _, t := range f.tables() {
			fmt.Fprintln(w, t)
		}
		if f.name == "5" {
			fmt.Fprintf(w, "average NTT share: Device1 %.2f%%, Device2 %.2f%% (paper: 79.99%% / 75.64%%)\n",
				100*fhebench.Fig5Average(gpu.Device1Spec()), 100*fhebench.Fig5Average(gpu.Device2Spec()))
		}
		fmt.Fprintln(w)
	}
}
