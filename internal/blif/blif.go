// Package blif reads and writes Boolean networks in the Berkeley Logic
// Interchange Format (BLIF) and in the ISCAS/ITC'99 ".bench" format. Both
// are the interchange formats used by the benchmark suites the SimGen paper
// evaluates on.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"simgen/internal/network"
	"simgen/internal/tt"
)

// Parse reads a BLIF model into a LUT network. Supported constructs:
// .model, .inputs, .outputs, .names (SOP tables with 0/1/- and a single
// output phase), .latch, and .end. Latches are cut combinationally: each
// latch output becomes a pseudo primary input and its data signal a pseudo
// primary output (the "_C" transformation of the ITC'99 suite). Subcircuits
// are rejected.
func Parse(r io.Reader) (*network.Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)

	var (
		modelName string
		inputs    []string
		outputs   []string
		latches   [][2]string // {data input, latch output}
	)
	type rawNames struct {
		signals []string // fanins..., output last
		lines   []string // SOP rows
	}
	var tables []rawNames
	var cur *rawNames

	lineno := 0
	var pending string
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		// Handle continuation lines ending in backslash.
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		if pending != "" {
			line = pending + line
			pending = ""
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) >= 2 {
				modelName = fields[1]
			}
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif:%d: .names needs at least an output", lineno)
			}
			tables = append(tables, rawNames{signals: fields[1:]})
			cur = &tables[len(tables)-1]
		case ".end":
			cur = nil
		case ".latch":
			// .latch <input> <output> [<type> <control>] [<init>]
			if len(fields) < 3 {
				return nil, fmt.Errorf("blif:%d: malformed .latch", lineno)
			}
			latches = append(latches, [2]string{fields[1], fields[2]})
		case ".subckt", ".gate":
			return nil, fmt.Errorf("blif:%d: unsupported construct %s (flat BLIF only)", lineno, fields[0])
		default:
			if strings.HasPrefix(fields[0], ".") {
				// Ignore unknown dot-directives (e.g. .default_input_arrival).
				continue
			}
			if cur == nil {
				return nil, fmt.Errorf("blif:%d: SOP row outside .names", lineno)
			}
			cur.lines = append(cur.lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	net := network.New(modelName)
	ids := map[string]network.NodeID{}
	for _, in := range inputs {
		if _, dup := ids[in]; dup {
			return nil, fmt.Errorf("blif: duplicate input %q", in)
		}
		ids[in] = net.AddPI(in)
	}
	// Latch outputs become pseudo primary inputs.
	for _, l := range latches {
		if _, dup := ids[l[1]]; dup {
			return nil, fmt.Errorf("blif: latch output %q already defined", l[1])
		}
		ids[l[1]] = net.AddPI(l[1])
	}

	// .names tables may appear in any order; resolve dependencies by
	// iterating until no progress (the DAG guarantee makes this converge).
	built := make([]bool, len(tables))
	remaining := len(tables)
	for remaining > 0 {
		progress := false
		for ti := range tables {
			if built[ti] {
				continue
			}
			tbl := &tables[ti]
			fanins := tbl.signals[:len(tbl.signals)-1]
			ready := true
			for _, f := range fanins {
				if _, ok := ids[f]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			out := tbl.signals[len(tbl.signals)-1]
			id, err := buildNames(net, ids, fanins, tbl.lines, out)
			if err != nil {
				return nil, err
			}
			if _, dup := ids[out]; dup {
				return nil, fmt.Errorf("blif: signal %q defined twice", out)
			}
			ids[out] = id
			built[ti] = true
			remaining--
			progress = true
		}
		if !progress {
			var missing []string
			for ti := range tables {
				if !built[ti] {
					missing = append(missing, tables[ti].signals[len(tables[ti].signals)-1])
				}
			}
			return nil, fmt.Errorf("blif: cyclic or undefined signals: %v", missing)
		}
	}

	for _, out := range outputs {
		id, ok := ids[out]
		if !ok {
			return nil, fmt.Errorf("blif: output %q is undefined", out)
		}
		net.AddPO(out, id)
	}
	// Latch data signals become pseudo primary outputs.
	for _, l := range latches {
		id, ok := ids[l[0]]
		if !ok {
			return nil, fmt.Errorf("blif: latch input %q is undefined", l[0])
		}
		net.AddPO(l[1]+"_next", id)
	}
	if err := net.Check(); err != nil {
		return nil, fmt.Errorf("blif: resulting network invalid: %v", err)
	}
	return net, nil
}

// buildNames converts one .names table into a network node.
func buildNames(net *network.Network, ids map[string]network.NodeID, faninNames, lines []string, outName string) (network.NodeID, error) {
	n := len(faninNames)
	if n > tt.MaxVars {
		return 0, fmt.Errorf("blif: node %q has %d fanins (max %d)", outName, n, tt.MaxVars)
	}
	if n == 0 {
		// Constant: "1" row means const-1; empty table means const-0.
		v := false
		for _, l := range lines {
			if strings.TrimSpace(l) == "1" {
				v = true
			}
		}
		id := net.AddConst(v)
		net.Node(id).Name = outName // keep the signal name for write-back
		return id, nil
	}

	onSet := tt.New(n)
	phase := byte(0)
	first := true
	for _, l := range lines {
		fields := strings.Fields(l)
		if len(fields) != 2 {
			return 0, fmt.Errorf("blif: node %q: malformed SOP row %q", outName, l)
		}
		pat, outc := fields[0], fields[1]
		if len(pat) != n {
			return 0, fmt.Errorf("blif: node %q: row %q has %d columns, want %d", outName, l, len(pat), n)
		}
		if outc != "0" && outc != "1" {
			return 0, fmt.Errorf("blif: node %q: invalid output %q", outName, outc)
		}
		if first {
			phase = outc[0]
			first = false
		} else if outc[0] != phase {
			return 0, fmt.Errorf("blif: node %q mixes output phases", outName)
		}
		cube := tt.Cube{}
		for i := 0; i < n; i++ {
			switch pat[i] {
			case '0':
				cube = cube.WithLiteral(i, false)
			case '1':
				cube = cube.WithLiteral(i, true)
			case '-':
			default:
				return 0, fmt.Errorf("blif: node %q: invalid pattern char %q", outName, pat[i])
			}
		}
		onSet.OrCube(cube)
	}
	fn := onSet
	if !first && phase == '0' {
		fn = onSet.Not()
	}
	fanins := make([]network.NodeID, n)
	for i, name := range faninNames {
		fanins[i] = ids[name]
	}
	return net.AddLUT(outName, fanins, fn), nil
}

// Write emits the network as combinational BLIF. Unnamed nodes receive
// synthetic names n<ID>.
func Write(w io.Writer, net *network.Network) error {
	bw := bufio.NewWriter(w)
	name := net.Name
	if name == "" {
		name = "top"
	}
	fmt.Fprintf(bw, ".model %s\n", name)

	// Unnamed nodes get generated names, which must never collide with
	// explicit names ("n4" may legitimately exist as a signal name).
	used := map[string]bool{}
	for id := 0; id < net.NumNodes(); id++ {
		if n := net.Node(network.NodeID(id)).Name; n != "" {
			used[n] = true
		}
	}
	generated := make(map[network.NodeID]string)
	nodeName := func(id network.NodeID) string {
		nd := net.Node(id)
		if nd.Name != "" {
			return nd.Name
		}
		if g, ok := generated[id]; ok {
			return g
		}
		g := fmt.Sprintf("n%d", id)
		for used[g] {
			g += "_"
		}
		used[g] = true
		generated[id] = g
		return g
	}

	fmt.Fprint(bw, ".inputs")
	for _, pi := range net.PIs() {
		fmt.Fprintf(bw, " %s", nodeName(pi))
	}
	fmt.Fprintln(bw)

	fmt.Fprint(bw, ".outputs")
	poNames := map[string]bool{}
	for _, po := range net.POs() {
		fmt.Fprintf(bw, " %s", po.Name)
		poNames[po.Name] = true
	}
	fmt.Fprintln(bw)

	for id := 0; id < net.NumNodes(); id++ {
		nid := network.NodeID(id)
		nd := net.Node(nid)
		switch nd.Kind {
		case network.KindConst:
			fmt.Fprintf(bw, ".names %s\n", nodeName(nid))
			if nd.Func.IsConst1() {
				fmt.Fprintln(bw, "1")
			}
		case network.KindLUT:
			fmt.Fprintf(bw, ".names")
			for _, f := range nd.Fanins {
				fmt.Fprintf(bw, " %s", nodeName(f))
			}
			fmt.Fprintf(bw, " %s\n", nodeName(nid))
			on := tt.ISOP(nd.Func)
			for _, cube := range on {
				fmt.Fprintf(bw, "%s 1\n", cube.StringN(len(nd.Fanins)))
			}
			if len(on) == 0 {
				// Constant-0 function expressed as an empty on-set: BLIF
				// semantics default missing rows to 0, so emit nothing.
			}
		}
	}

	// POs whose name differs from the driver node need a buffer.
	for _, po := range net.POs() {
		dn := nodeName(po.Driver)
		if dn != po.Name {
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", dn, po.Name)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}
