// Package rtlib generates gate-level implementations of the RT-level
// datapath components the macro-modeling sections characterize: ripple-
// carry adders/subtractors, array multipliers, comparators, shifters,
// incrementers, and simple ALUs. Builders compose into an existing
// netlist so larger datapaths (the FIR filter of Table I, the HLS
// datapaths of §III-E) can be assembled from them.
package rtlib

import (
	"fmt"

	"hlpower/internal/bitutil"
	"hlpower/internal/logic"
	"hlpower/internal/sim"
)

// FullAdder adds one bit column and returns (sum, carry).
func FullAdder(n *logic.Netlist, a, b, cin int, group string) (sum, cout int) {
	axb := n.AddG(logic.Xor, group, a, b)
	sum = n.AddG(logic.Xor, group, axb, cin)
	ab := n.AddG(logic.And, group, a, b)
	cx := n.AddG(logic.And, group, axb, cin)
	cout = n.AddG(logic.Or, group, ab, cx)
	return sum, cout
}

// zeroBus records a width-mismatch construction error on the netlist
// (sticky; surfaced by Netlist.Err and every downstream consumer) and
// returns a constant-0 bus of the given width so callers keep valid
// signal ids.
func zeroBus(n *logic.Netlist, width int, group, op, format string, args ...any) logic.Bus {
	n.Failf(op, format, args...)
	zero := n.AddG(logic.Const0, group)
	out := make(logic.Bus, width)
	for i := range out {
		out[i] = zero
	}
	return out
}

// RippleAdder builds a width-|a| ripple-carry adder; cin < 0 means no
// carry-in (constant 0). Returns the sum bus and carry-out signal.
// Mismatched operand widths record a sticky error on the netlist.
func RippleAdder(n *logic.Netlist, a, b logic.Bus, cin int, group string) (logic.Bus, int) {
	if len(a) != len(b) {
		out := zeroBus(n, len(a), group, "rtlib.RippleAdder", "adder width mismatch %d vs %d", len(a), len(b))
		return out, n.AddG(logic.Const0, group)
	}
	if cin < 0 {
		cin = n.AddG(logic.Const0, group)
	}
	sum := make(logic.Bus, len(a))
	c := cin
	for i := range a {
		sum[i], c = FullAdder(n, a[i], b[i], c, group)
	}
	return sum, c
}

// RippleSubtractor computes a − b (two's complement) by adding the
// bitwise complement of b with carry-in 1. Returns difference and the
// final carry (1 means no borrow, i.e. a >= b unsigned).
func RippleSubtractor(n *logic.Netlist, a, b logic.Bus, group string) (logic.Bus, int) {
	nb := make(logic.Bus, len(b))
	for i, s := range b {
		nb[i] = n.AddG(logic.Not, group, s)
	}
	one := n.AddG(logic.Const1, group)
	return RippleAdderWithCarry(n, a, nb, one, group)
}

// RippleAdderWithCarry is RippleAdder with an explicit carry-in signal.
func RippleAdderWithCarry(n *logic.Netlist, a, b logic.Bus, cin int, group string) (logic.Bus, int) {
	return RippleAdder(n, a, b, cin, group)
}

// ArrayMultiplier builds an unsigned array multiplier producing the full
// 2·width product: AND-gate partial products reduced by ripple-adder
// rows. Its depth and reconvergence make it the glitchiest standard
// module — the paper's canonical "deep logic nesting" example.
func ArrayMultiplier(n *logic.Netlist, a, b logic.Bus, group string) logic.Bus {
	w := len(a)
	if len(b) != w {
		return zeroBus(n, 2*w, group, "rtlib.ArrayMultiplier", "multiplier width mismatch %d vs %d", w, len(b))
	}
	zero := n.AddG(logic.Const0, group)
	// acc holds the running sum, 2w bits.
	acc := make(logic.Bus, 2*w)
	for i := range acc {
		acc[i] = zero
	}
	for j := 0; j < w; j++ {
		// Partial product row j: a AND b[j], shifted left j.
		row := make(logic.Bus, w)
		for i := 0; i < w; i++ {
			row[i] = n.AddG(logic.And, group, a[i], b[j])
		}
		// Add row into acc[j : j+w] with ripple carry.
		c := zero
		for i := 0; i < w; i++ {
			acc[j+i], c = FullAdder(n, acc[j+i], row[i], c, group)
		}
		// Propagate the final carry up the remaining columns.
		for k := j + w; k < 2*w && c != zero; k++ {
			s := n.AddG(logic.Xor, group, acc[k], c)
			c = n.AddG(logic.And, group, acc[k], c)
			acc[k] = s
		}
	}
	return acc
}

// ConstShiftAdd multiplies a by the constant k using the shift-and-add
// decomposition (the §III-C strength-reduction transformation): one
// ripple adder per set bit of k beyond the first. The result is truncated
// to outWidth bits.
func ConstShiftAdd(n *logic.Netlist, a logic.Bus, k uint64, outWidth int, group string) logic.Bus {
	zero := n.AddG(logic.Const0, group)
	shifted := func(sh int) logic.Bus {
		out := make(logic.Bus, outWidth)
		for i := range out {
			src := i - sh
			if src >= 0 && src < len(a) {
				out[i] = a[src]
			} else {
				out[i] = zero
			}
		}
		return out
	}
	var acc logic.Bus
	for bit := 0; bit < 64 && bit < outWidth; bit++ {
		if k>>uint(bit)&1 == 0 {
			continue
		}
		term := shifted(bit)
		if acc == nil {
			acc = term
			continue
		}
		acc, _ = RippleAdder(n, acc, term, -1, group)
	}
	if acc == nil { // k == 0
		acc = make(logic.Bus, outWidth)
		for i := range acc {
			acc[i] = zero
		}
	}
	return acc
}

// EqualComparator returns a signal that is true when buses a and b are
// bitwise equal.
func EqualComparator(n *logic.Netlist, a, b logic.Bus, group string) int {
	if len(a) != len(b) {
		n.Failf("rtlib.EqualComparator", "comparator width mismatch %d vs %d", len(a), len(b))
		return n.AddG(logic.Const0, group)
	}
	xn := make([]int, len(a))
	for i := range a {
		xn[i] = n.AddG(logic.Xnor, group, a[i], b[i])
	}
	if len(xn) == 1 {
		return xn[0]
	}
	return n.AddG(logic.And, group, xn...)
}

// LessThanComparator returns a signal that is true when unsigned a < b,
// using the borrow of a ripple subtractor.
func LessThanComparator(n *logic.Netlist, a, b logic.Bus, group string) int {
	_, noBorrow := RippleSubtractor(n, a, b, group)
	return n.AddG(logic.Not, group, noBorrow)
}

// Incrementer returns a + 1 over the bus width (wrapping).
func Incrementer(n *logic.Netlist, a logic.Bus, group string) logic.Bus {
	out := make(logic.Bus, len(a))
	c := n.AddG(logic.Const1, group)
	for i := range a {
		out[i] = n.AddG(logic.Xor, group, a[i], c)
		if i < len(a)-1 {
			c = n.AddG(logic.And, group, a[i], c)
		}
	}
	return out
}

// Module is a standalone combinational datapath block with dedicated
// primary inputs, ready for characterization and macro-modeling.
type Module struct {
	Name string
	Net  *logic.Netlist
	A, B logic.Bus // operand input buses (B may be nil for unary blocks)
	Out  logic.Bus
}

// NewAdder returns a standalone width-bit adder module.
func NewAdder(width int) *Module {
	n := logic.New()
	a := n.AddInputBus("a", width)
	b := n.AddInputBus("b", width)
	sum, cout := RippleAdder(n, a, b, -1, "exec")
	n.MarkOutputBus(sum)
	n.MarkOutput(cout)
	return &Module{Name: fmt.Sprintf("add%d", width), Net: n, A: a, B: b, Out: append(append(logic.Bus{}, sum...), cout)}
}

// NewMultiplier returns a standalone width×width array multiplier.
func NewMultiplier(width int) *Module {
	n := logic.New()
	a := n.AddInputBus("a", width)
	b := n.AddInputBus("b", width)
	p := ArrayMultiplier(n, a, b, "exec")
	n.MarkOutputBus(p)
	return &Module{Name: fmt.Sprintf("mul%d", width), Net: n, A: a, B: b, Out: p}
}

// NewSubtractor returns a standalone width-bit subtractor.
func NewSubtractor(width int) *Module {
	n := logic.New()
	a := n.AddInputBus("a", width)
	b := n.AddInputBus("b", width)
	d, _ := RippleSubtractor(n, a, b, "exec")
	n.MarkOutputBus(d)
	return &Module{Name: fmt.Sprintf("sub%d", width), Net: n, A: a, B: b, Out: d}
}

// NewComparator returns a standalone unsigned less-than comparator.
func NewComparator(width int) *Module {
	n := logic.New()
	a := n.AddInputBus("a", width)
	b := n.AddInputBus("b", width)
	lt := LessThanComparator(n, a, b, "exec")
	n.MarkOutput(lt)
	return &Module{Name: fmt.Sprintf("cmp%d", width), Net: n, A: a, B: b, Out: logic.Bus{lt}}
}

// Width returns the operand width of the module.
func (m *Module) Width() int { return len(m.A) }

// InputVector packs operand words into the module's primary-input order.
func (m *Module) InputVector(a, b uint64) []bool {
	vec := make([]bool, 0, len(m.A)+len(m.B))
	vec = append(vec, bitutil.ToBits(a, len(m.A))...)
	if len(m.B) > 0 {
		vec = append(vec, bitutil.ToBits(b, len(m.B))...)
	}
	return vec
}

// InputWord packs operand words into one input word — bit i holds the
// value InputVector would put at position i — for the packed kernel's
// WordInputs fast path. The two must stay in lockstep: sim feeds both
// against the same primary-input order, and the batch pipeline's
// bit-identity rests on them agreeing.
func (m *Module) InputWord(a, b uint64) uint64 {
	w := a & bitutil.Mask(len(m.A))
	if len(m.B) > 0 {
		w |= (b & bitutil.Mask(len(m.B))) << uint(len(m.A))
	}
	return w
}

// OutputWord decodes the module's settled output bus into an integer.
func (m *Module) OutputWord(out []bool) uint64 {
	return bitutil.FromBits(out)
}

// SimulateStream runs the module over paired operand streams and returns
// the simulation result under the given delay model.
func (m *Module) SimulateStream(aStream, bStream []uint64, model sim.DelayModel) (*sim.Result, error) {
	if len(bStream) > 0 && len(aStream) != len(bStream) {
		return nil, fmt.Errorf("rtlib: stream lengths differ (%d vs %d)", len(aStream), len(bStream))
	}
	prov := func(c int) []bool {
		var b uint64
		if len(bStream) > 0 {
			b = bStream[c]
		}
		return m.InputVector(aStream[c], b)
	}
	// The packed entry point auto-selects: rtlib modules are
	// combinational, so zero-delay streams ride the 64-lane kernel and
	// event-driven streams fall back to the scalar engine, with
	// bit-identical results and step accounting either way.
	return sim.RunPacked(m.Net, prov, len(aStream), sim.Options{Model: model})
}

// EnergyPerPair measures the average switched capacitance per input pair
// of the module under the given delay model — the ground truth the
// macro-models approximate.
func (m *Module) EnergyPerPair(aStream, bStream []uint64, model sim.DelayModel) (float64, error) {
	res, err := m.SimulateStream(aStream, bStream, model)
	if err != nil {
		return 0, err
	}
	if res.Cycles == 0 {
		return 0, nil
	}
	return res.SwitchedCap / float64(res.Cycles), nil
}

// CarrySelectAdder builds a two-block carry-select adder: the upper half
// is computed for both carry-in values and selected by the lower half's
// carry-out. Same function as RippleAdder with roughly half the depth at
// more area — the architectural alternative the §II-C1 macro-models are
// parameterized over.
func CarrySelectAdder(n *logic.Netlist, a, b logic.Bus, group string) (logic.Bus, int) {
	w := len(a)
	if len(b) != w {
		out := zeroBus(n, w, group, "rtlib.CarrySelectAdder", "adder width mismatch %d vs %d", w, len(b))
		return out, n.AddG(logic.Const0, group)
	}
	if w < 2 {
		return RippleAdder(n, a, b, -1, group)
	}
	half := w / 2
	sumLo, cLo := RippleAdder(n, a[:half], b[:half], -1, group)
	zero := n.AddG(logic.Const0, group)
	one := n.AddG(logic.Const1, group)
	sum0, c0 := RippleAdderWithCarry(n, a[half:], b[half:], zero, group)
	sum1, c1 := RippleAdderWithCarry(n, a[half:], b[half:], one, group)
	sumHi := n.MuxBus(cLo, sum0, sum1, group)
	cout := n.AddG(logic.Mux, group, cLo, c0, c1)
	return append(append(logic.Bus{}, sumLo...), sumHi...), cout
}

// NewCarrySelectAdder returns a standalone carry-select adder module.
func NewCarrySelectAdder(width int) *Module {
	n := logic.New()
	a := n.AddInputBus("a", width)
	b := n.AddInputBus("b", width)
	sum, cout := CarrySelectAdder(n, a, b, "exec")
	n.MarkOutputBus(sum)
	n.MarkOutput(cout)
	return &Module{Name: fmt.Sprintf("csel%d", width), Net: n, A: a, B: b,
		Out: append(append(logic.Bus{}, sum...), cout)}
}
