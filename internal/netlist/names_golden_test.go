package netlist_test

// Writer goldens: the Verilog and Liberty text of a netlist sized on the
// continuous custom library, where most cells are fabricated at an exact
// drive (AND2_X1.3224999999999998, DOM_AND2_X..., DOM2_XOR2_X...), then
// pipelined with alignment registers. The files pin every spelled cell
// name and every pipeline net name byte for byte. Regenerate them with
// `go test ./internal/netlist -run TestWriterGoldens -update` only when
// the netlist itself is meant to change.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cell"
	"repro/internal/circuits"
	"repro/internal/dynlogic"
	"repro/internal/netlist"
	"repro/internal/pipeline"
	"repro/internal/sizing"
	"repro/internal/units"
)

var update = flag.Bool("update", false, "rewrite the writer goldens under testdata/")

// continuousNetlist is a 16-bit Kogge-Stone adder on the custom library,
// TILOS-sized, dominoized with dual rail allowed, and cut into 3 refined
// pipeline stages.
func continuousNetlist(t *testing.T) (*netlist.Netlist, *netlist.Netlist) {
	t.Helper()
	lib := cell.Custom()
	a, err := circuits.KoggeStone(lib, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N
	if _, err := sizing.ContinuousTILOS(n, lib, sizing.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := dynlogic.Dominoize(n, dynlogic.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.Pipeline(n, pipeline.Options{Stages: 3, Seq: lib.DefaultSeq(2), Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	return n, p
}

// usedCells is a library of the distinct cells the netlist instantiates,
// in first-use order.
func usedCells(n *netlist.Netlist) *cell.Library {
	lib := cell.NewLibrary("used")
	seen := map[*cell.Cell]bool{}
	for _, g := range n.Gates() {
		if !seen[g.Cell] {
			seen[g.Cell] = true
			lib.Add(g.Cell)
		}
	}
	return lib
}

func TestWriterGoldens(t *testing.T) {
	n, p := continuousNetlist(t)
	var v bytes.Buffer
	for _, nl := range []*netlist.Netlist{n, p} {
		if err := nl.WriteVerilog(&v); err != nil {
			t.Fatal(err)
		}
	}
	var lib bytes.Buffer
	if err := cell.WriteLiberty(&lib, usedCells(n), units.ASIC025); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"continuous.v", v.Bytes()},
		{"continuous.lib", lib.Bytes()},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: writer output differs from the golden (%d bytes, want %d)", g.file, len(g.got), len(want))
		}
	}
}
