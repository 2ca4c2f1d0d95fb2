package blif

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"simgen/internal/network"
	"simgen/internal/tt"
)

// ParseBench reads an ISCAS/ITC'99 ".bench" netlist into a LUT network.
// Supported gates: AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF/BUFF. DFF
// elements are converted combinationally: the flip-flop output becomes a
// primary input and its data pin a primary output, which is the standard
// "_C" (combinational) transformation used by the ITC'99 suite.
func ParseBench(r io.Reader) (*network.Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)

	type gate struct {
		out  string
		op   string
		args []string
	}
	var (
		inputs  []string
		outputs []string
		gates   []gate
		dffs    []gate
	)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(upper, "INPUT(") || strings.HasPrefix(upper, "INPUT ("):
			name := between(line, '(', ')')
			if name == "" {
				return nil, fmt.Errorf("bench:%d: malformed INPUT", lineno)
			}
			inputs = append(inputs, name)
		case strings.HasPrefix(upper, "OUTPUT(") || strings.HasPrefix(upper, "OUTPUT ("):
			name := between(line, '(', ')')
			if name == "" {
				return nil, fmt.Errorf("bench:%d: malformed OUTPUT", lineno)
			}
			outputs = append(outputs, name)
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("bench:%d: unrecognized line %q", lineno, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			par := strings.IndexByte(rhs, '(')
			if par < 0 || !strings.HasSuffix(rhs, ")") {
				return nil, fmt.Errorf("bench:%d: malformed gate %q", lineno, line)
			}
			op := strings.ToUpper(strings.TrimSpace(rhs[:par]))
			argstr := rhs[par+1 : len(rhs)-1]
			var args []string
			for _, a := range strings.Split(argstr, ",") {
				a = strings.TrimSpace(a)
				if a != "" {
					args = append(args, a)
				}
			}
			g := gate{out: out, op: op, args: args}
			if op == "DFF" {
				dffs = append(dffs, g)
			} else {
				gates = append(gates, g)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	net := network.New("bench")
	ids := map[string]network.NodeID{}
	for _, in := range inputs {
		ids[in] = net.AddPI(in)
	}
	// DFF outputs become pseudo primary inputs.
	for _, d := range dffs {
		if _, dup := ids[d.out]; dup {
			return nil, fmt.Errorf("bench: DFF output %q already defined", d.out)
		}
		ids[d.out] = net.AddPI(d.out)
	}

	built := make([]bool, len(gates))
	remaining := len(gates)
	for remaining > 0 {
		progress := false
		for gi := range gates {
			if built[gi] {
				continue
			}
			g := &gates[gi]
			ready := true
			for _, a := range g.args {
				if _, ok := ids[a]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			fn, err := benchGateTable(g.op, len(g.args))
			if err != nil {
				return nil, fmt.Errorf("bench: gate %q: %v", g.out, err)
			}
			fanins := make([]network.NodeID, len(g.args))
			for i, a := range g.args {
				fanins[i] = ids[a]
			}
			if _, dup := ids[g.out]; dup {
				return nil, fmt.Errorf("bench: signal %q defined twice", g.out)
			}
			ids[g.out] = net.AddLUT(g.out, fanins, fn)
			built[gi] = true
			remaining--
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("bench: cyclic or undefined combinational signals")
		}
	}

	for _, out := range outputs {
		id, ok := ids[out]
		if !ok {
			return nil, fmt.Errorf("bench: output %q undefined", out)
		}
		net.AddPO(out, id)
	}
	// DFF data pins become pseudo primary outputs.
	for _, d := range dffs {
		if len(d.args) != 1 {
			return nil, fmt.Errorf("bench: DFF %q must have exactly one input", d.out)
		}
		id, ok := ids[d.args[0]]
		if !ok {
			return nil, fmt.Errorf("bench: DFF %q input %q undefined", d.out, d.args[0])
		}
		net.AddPO(d.out+"_next", id)
	}
	if err := net.Check(); err != nil {
		return nil, fmt.Errorf("bench: resulting network invalid: %v", err)
	}
	return net, nil
}

func between(s string, open, close byte) string {
	i := strings.IndexByte(s, open)
	j := strings.LastIndexByte(s, close)
	if i < 0 || j <= i {
		return ""
	}
	return strings.TrimSpace(s[i+1 : j])
}

// benchGateTable returns the truth table of a named bench gate with the
// given arity.
func benchGateTable(op string, arity int) (tt.Table, error) {
	if arity == 0 {
		return tt.Table{}, fmt.Errorf("gate %s with no inputs", op)
	}
	if arity > tt.MaxVars {
		return tt.Table{}, fmt.Errorf("gate %s arity %d exceeds max %d", op, arity, tt.MaxVars)
	}
	switch op {
	case "NOT":
		if arity != 1 {
			return tt.Table{}, fmt.Errorf("NOT must have one input")
		}
		return tt.Var(1, 0).Not(), nil
	case "BUF", "BUFF":
		if arity != 1 {
			return tt.Table{}, fmt.Errorf("BUF must have one input")
		}
		return tt.Var(1, 0), nil
	case "AND", "NAND":
		f := tt.Const(arity, true)
		for i := 0; i < arity; i++ {
			f = f.And(tt.Var(arity, i))
		}
		if op == "NAND" {
			f = f.Not()
		}
		return f, nil
	case "OR", "NOR":
		f := tt.Const(arity, false)
		for i := 0; i < arity; i++ {
			f = f.Or(tt.Var(arity, i))
		}
		if op == "NOR" {
			f = f.Not()
		}
		return f, nil
	case "XOR", "XNOR":
		f := tt.Const(arity, false)
		for i := 0; i < arity; i++ {
			f = f.Xor(tt.Var(arity, i))
		}
		if op == "XNOR" {
			f = f.Not()
		}
		return f, nil
	default:
		return tt.Table{}, fmt.Errorf("unknown gate type %s", op)
	}
}
