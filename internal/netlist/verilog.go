package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/cell"
)

// WriteVerilog emits the netlist as structural Verilog: one module with
// the primary inputs/outputs as ports, every net declared as a wire, and
// one instance per gate/register. Cell names become module names
// (sanitized); register instances use the cell name with pins D, CK, Q.
// The output is deterministic.
func (n *Netlist) WriteVerilog(w io.Writer) error {
	bw := bufio.NewWriter(w)
	name := sanitize(n.Name)
	if name == "" {
		name = "top"
	}

	var ports []string
	for _, id := range n.inputs {
		ports = append(ports, netName(n, id))
	}
	for _, id := range n.outputs {
		ports = append(ports, netName(n, id))
	}
	fmt.Fprintf(bw, "// generated by repro/internal/netlist\nmodule %s (%s);\n", name, strings.Join(ports, ", "))
	if len(n.regs) > 0 {
		fmt.Fprintf(bw, "  input clk;\n")
	}
	for _, id := range n.inputs {
		fmt.Fprintf(bw, "  input %s;\n", netName(n, id))
	}
	for _, id := range n.outputs {
		fmt.Fprintf(bw, "  output %s;\n", netName(n, id))
	}
	for _, nt := range n.nets {
		if nt.IsInput || nt.IsOutput {
			continue
		}
		fmt.Fprintf(bw, "  wire %s;\n", netName(n, nt.ID))
	}
	for _, g := range n.gates {
		pins := make([]string, 0, len(g.In)+1)
		for i, in := range g.In {
			pins = append(pins, fmt.Sprintf(".%s(%s)", pinName(i), netName(n, in)))
		}
		pins = append(pins, fmt.Sprintf(".Y(%s)", netName(n, g.Out)))
		fmt.Fprintf(bw, "  %s g%d (%s);\n", sanitize(g.Cell.Name()), g.ID, strings.Join(pins, ", "))
	}
	for _, r := range n.regs {
		fmt.Fprintf(bw, "  %s r%d (.D(%s), .CK(clk), .Q(%s));\n",
			sanitize(r.Cell.Name), r.ID, netName(n, r.D), netName(n, r.Q))
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// pinName maps input-pin indices to conventional pin names A, B, C, D.
func pinName(i int) string { return string(rune('A' + i)) }

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	out := b.String()
	if out != "" && out[0] >= '0' && out[0] <= '9' {
		out = "m" + out
	}
	return out
}

func netName(n *Netlist, id NetID) string {
	nm := sanitize(n.nets[id].Name)
	if nm == "" {
		nm = fmt.Sprintf("n%d", id)
	}
	return nm
}

// ReadVerilog parses structural Verilog in the dialect WriteVerilog
// emits (one module; named port connections; cells resolved against the
// library by sanitized cell name). It is an interchange loop-back, not a
// general Verilog front end: expressions, assigns, and behavioural code
// are rejected.
func ReadVerilog(r io.Reader, lib *cell.Library) (*Netlist, error) {
	// Index the library's cells by sanitized name.
	combByName := map[string]*cell.Cell{}
	for _, f := range lib.Functions() {
		for _, c := range lib.Cells(f) {
			combByName[sanitize(c.Name())] = c
		}
	}
	seqByName := map[string]*cell.SeqCell{}
	for _, s := range lib.SeqCells() {
		seqByName[sanitize(s.Name)] = s
	}

	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Tokenize into statements on ';'.
	src := string(text)
	// Strip comments.
	var clean strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte(' ')
	}
	stmts := strings.Split(clean.String(), ";")

	var n *Netlist
	nets := map[string]NetID{}
	type pending struct {
		cellName string
		inst     string
		conns    map[string]string
	}
	var gates []pending

	getNet := func(name string) NetID {
		if id, ok := nets[name]; ok {
			return id
		}
		// Implicit wire (outputs of gates declared later).
		id := n.AllocNet(name)
		nets[name] = id
		return id
	}

	var outputs []string
	for _, raw := range stmts {
		s := strings.TrimSpace(raw)
		if s == "" || strings.HasPrefix(s, "endmodule") {
			continue
		}
		fields := strings.Fields(s)
		switch fields[0] {
		case "module":
			name := s[len("module"):]
			if i := strings.Index(name, "("); i >= 0 {
				name = name[:i]
			}
			n = New(strings.TrimSpace(name))
		case "input":
			for _, nm := range splitNames(s[len("input"):]) {
				if nm == "clk" {
					continue
				}
				if n == nil {
					return nil, fmt.Errorf("netlist: input before module")
				}
				nets[nm] = n.AddInput(nm)
			}
		case "output":
			outputs = append(outputs, splitNames(s[len("output"):])...)
		case "wire":
			for _, nm := range splitNames(s[len("wire"):]) {
				if n == nil {
					return nil, fmt.Errorf("netlist: wire before module")
				}
				if _, ok := nets[nm]; !ok {
					nets[nm] = n.AllocNet(nm)
				}
			}
		default:
			// Instance: CELL inst (.A(x), .B(y), .Y(z))
			open := strings.Index(s, "(")
			if open < 0 || len(fields) < 2 {
				return nil, fmt.Errorf("netlist: unparseable statement %q", s)
			}
			conns, err := parseConns(s[open:])
			if err != nil {
				return nil, err
			}
			gates = append(gates, pending{cellName: fields[0], inst: fields[1], conns: conns})
		}
	}
	if n == nil {
		return nil, fmt.Errorf("netlist: no module found")
	}

	// Instantiate. A net may be consumed (as a pin) before the
	// instance driving it appears in the file (register Q nets feed
	// earlier gates), so getNet pre-allocates placeholder nets; when
	// the driving instance arrives, its driver is rebound onto the
	// placeholder and the freshly created net becomes an orphan (it
	// keeps its driver pointer and has no sinks, which the structural
	// checker accepts).
	rebind := func(fresh NetID, yName string) NetID {
		old, exists := nets[yName]
		if !exists || old == fresh {
			n.Net(fresh).Name = yName
			nets[yName] = fresh
			return fresh
		}
		fn := n.Net(fresh)
		on := n.Net(old)
		on.Driver = fn.Driver
		on.DriverReg = fn.DriverReg
		if fn.Driver != None {
			n.Gate(fn.Driver).Out = old
		}
		if fn.DriverReg != None {
			n.Reg(fn.DriverReg).Q = old
		}
		fn.Name = fn.Name + "_orphan"
		return old
	}

	for _, p := range gates {
		if sc, ok := seqByName[p.cellName]; ok {
			dName, ok := p.conns["D"]
			if !ok {
				return nil, fmt.Errorf("netlist: register %s missing D", p.inst)
			}
			qName, ok := p.conns["Q"]
			if !ok {
				return nil, fmt.Errorf("netlist: register %s missing Q", p.inst)
			}
			q := n.AddReg(sc, getNet(dName))
			rebind(q, qName)
			continue
		}
		c, ok := combByName[p.cellName]
		if !ok {
			return nil, fmt.Errorf("netlist: unknown cell %q", p.cellName)
		}
		ins := make([]NetID, c.Inputs())
		for i := range ins {
			nm, ok := p.conns[pinName(i)]
			if !ok {
				return nil, fmt.Errorf("netlist: %s missing pin %s", p.inst, pinName(i))
			}
			ins[i] = getNet(nm)
		}
		yName, ok := p.conns["Y"]
		if !ok {
			return nil, fmt.Errorf("netlist: %s missing pin Y", p.inst)
		}
		out, err := n.AddGate(c, ins...)
		if err != nil {
			return nil, err
		}
		rebind(out, yName)
	}

	for _, nm := range outputs {
		id, ok := nets[nm]
		if !ok {
			return nil, fmt.Errorf("netlist: output %q never driven", nm)
		}
		n.MarkOutput(id)
	}
	// Every named net must have found a driver.
	for _, nt := range n.Nets() {
		if strings.HasSuffix(nt.Name, "_orphan") {
			continue
		}
		if nt.Driver == None && nt.DriverReg == None && !nt.IsInput {
			return nil, fmt.Errorf("netlist: net %q has no driver", nt.Name)
		}
	}
	return n, nil
}

// splitNames splits "a, b , c" into names.
func splitNames(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if nm := strings.TrimSpace(part); nm != "" {
			out = append(out, nm)
		}
	}
	return out
}

// parseConns parses "(.A(x), .B(y))" into pin->net.
func parseConns(s string) (map[string]string, error) {
	conns := map[string]string{}
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") {
		return nil, fmt.Errorf("netlist: expected connection list, got %q", s)
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(s, "("), ")")
	depth := 0
	start := 0
	var parts []string
	for i, r := range inner {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, inner[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, inner[start:])
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.HasPrefix(part, ".") {
			return nil, fmt.Errorf("netlist: positional connections unsupported: %q", part)
		}
		open := strings.Index(part, "(")
		cls := strings.LastIndex(part, ")")
		if open < 0 || cls < open {
			return nil, fmt.Errorf("netlist: malformed connection %q", part)
		}
		pin := strings.TrimSpace(part[1:open])
		net := strings.TrimSpace(part[open+1 : cls])
		conns[pin] = net
	}
	return conns, nil
}
