package memo

import (
	"math"
	"testing"

	"hlpower/internal/logic"
	"hlpower/internal/sim"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEnc()
	e.Uint64(0xdeadbeef)
	e.Int64(-42)
	e.Int(7)
	e.Bool(true)
	e.Bool(false)
	e.Float64(3.14159)
	e.Float64(math.Copysign(0, -1)) // -0 must survive as bits
	e.String("netlist/v1")
	e.String("")
	e.Bytes([]byte{1, 2, 3})
	e.Uint64s([]uint64{9, 8, 7})
	e.Bools([]bool{true, false, true, true, false, false, true, false, true}) // 9 bits: partial last byte
	e.Bools(nil)

	d := NewDec(e)
	if got := d.Uint64(); got != 0xdeadbeef {
		t.Fatalf("Uint64 = %x", got)
	}
	if got := d.Int64(); got != -42 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := d.Int64(); got != 7 {
		t.Fatalf("Int = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := d.Float64(); got != 3.14159 {
		t.Fatalf("Float64 = %v", got)
	}
	if got := d.Float64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0 became %v (bits %x)", got, math.Float64bits(got))
	}
	if got := d.String(); got != "netlist/v1" {
		t.Fatalf("String = %q", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if got := d.Bytes(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Bytes = %v", got)
	}
	if got := d.Uint64s(); len(got) != 3 || got[0] != 9 || got[2] != 7 {
		t.Fatalf("Uint64s = %v", got)
	}
	want := []bool{true, false, true, true, false, false, true, false, true}
	got := d.Bools()
	if len(got) != len(want) {
		t.Fatalf("Bools len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bools[%d] = %v", i, got[i])
		}
	}
	if got := d.Bools(); len(got) != 0 {
		t.Fatalf("nil Bools = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if !d.Done() {
		t.Fatal("decoder did not consume the whole encoding")
	}
}

func TestDecoderRejectsTagMismatch(t *testing.T) {
	e := NewEnc()
	e.Uint64(1)
	d := NewDec(e)
	if d.Int64() != 0 || d.Err() == nil {
		t.Fatal("tag mismatch not detected")
	}
	// Sticky: subsequent reads keep failing.
	if d.Uint64() != 0 || d.Err() == nil {
		t.Fatal("decode error not sticky")
	}
}

// smallNetlist builds a 2-input circuit used by the sensitivity tests.
func smallNetlist() *logic.Netlist {
	n := logic.New()
	a := n.AddInput("a")
	b := n.AddInput("b")
	x := n.Add(logic.And, a, b)
	y := n.Add(logic.Xor, a, x)
	n.MarkOutput(y)
	return n
}

func netlistKey(n *logic.Netlist) Key {
	e := NewEnc()
	HashNetlist(e, n)
	return e.Key()
}

// TestKeyDeterministic: identical inputs hash to identical keys across
// independent encoder instances.
func TestKeyDeterministic(t *testing.T) {
	if k1, k2 := netlistKey(smallNetlist()), netlistKey(smallNetlist()); k1 != k2 {
		t.Fatalf("identical netlists hash differently: %v vs %v", k1, k2)
	}
	mk := func() Key {
		e := NewEnc()
		e.String("tag")
		e.Uint64(12345) // seed
		e.Int(5000)     // cycles
		e.Int64(1 << 20)
		return e.Key()
	}
	if mk() != mk() {
		t.Fatal("identical scalar encodings hash differently")
	}
}

// TestEncFromPrefix: extending a copied prefix yields the key of the
// whole encoding, for any size hint.
func TestEncFromPrefix(t *testing.T) {
	full := NewEnc()
	full.String("tag")
	HashNetlist(full, smallNetlist())
	prefix := full.Data()
	full.Uint64s([]uint64{1, 2, 3})
	want := full.Key()
	for _, extra := range []int{0, 1, 33, 1024} {
		e := EncFrom(prefix, extra)
		e.Uint64s([]uint64{1, 2, 3})
		if got := e.Key(); got != want {
			t.Fatalf("extra=%d: prefixed key %v, want %v", extra, got, want)
		}
		if e.Len() != full.Len() || len(prefix) != full.Len()-(9+3*8) {
			t.Fatalf("extra=%d: encoding length %d, prefix %d", extra, e.Len(), len(prefix))
		}
	}
}

// TestKeySensitivity: mutating any single result-determining field —
// RNG seed, budget cap, gate kind, cycle count, electrical parameter —
// produces a different key.
func TestKeySensitivity(t *testing.T) {
	base := func(seed uint64, cycles int, cap int64) Key {
		e := NewEnc()
		e.String("powerd/simulate/v1")
		HashNetlist(e, smallNetlist())
		e.Uint64(seed)
		e.Int(cycles)
		e.Int64(cap)
		return e.Key()
	}
	ref := base(1, 100, 1<<20)
	if base(2, 100, 1<<20) == ref {
		t.Fatal("seed mutation did not change the key")
	}
	if base(1, 101, 1<<20) == ref {
		t.Fatal("cycle-count mutation did not change the key")
	}
	if base(1, 100, 1<<20+1) == ref {
		t.Fatal("step-cap mutation did not change the key")
	}

	// Gate-kind mutation.
	n1 := smallNetlist()
	n2 := logic.New()
	a := n2.AddInput("a")
	b := n2.AddInput("b")
	x := n2.Add(logic.Or, a, b) // And -> Or
	y := n2.Add(logic.Xor, a, x)
	n2.MarkOutput(y)
	if netlistKey(n1) == netlistKey(n2) {
		t.Fatal("gate-kind mutation did not change the key")
	}

	// Electrical parameter mutation.
	n3 := smallNetlist()
	n3.InputCap += 0.001
	if netlistKey(smallNetlist()) == netlistKey(n3) {
		t.Fatal("capacitance mutation did not change the key")
	}

	// Signal names are labels, not structure: renaming must NOT change
	// the key.
	n4 := smallNetlist()
	n4.SetName(2, "renamed_and_gate")
	if netlistKey(smallNetlist()) != netlistKey(n4) {
		t.Fatal("renaming a signal changed the key")
	}
}

func TestSimOptionsSensitivity(t *testing.T) {
	k := func(o sim.Options) Key {
		e := NewEnc()
		HashSimOptions(e, o)
		return e.Key()
	}
	ref := sim.Options{Vdd: 1, Freq: 1}
	if k(ref) != k(sim.Options{Vdd: 1, Freq: 1}) {
		t.Fatal("identical options hash differently")
	}
	for name, o := range map[string]sim.Options{
		"model":      {Model: sim.EventDriven, Vdd: 1, Freq: 1},
		"vdd":        {Vdd: 1.1, Freq: 1},
		"freq":       {Vdd: 1, Freq: 2},
		"trackClock": {Vdd: 1, Freq: 1, TrackClock: true},
	} {
		if k(o) == k(ref) {
			t.Fatalf("%s mutation did not change the key", name)
		}
	}
}

func TestHashInputsSensitivity(t *testing.T) {
	vec := func(bits ...bool) sim.InputProvider {
		return func(int) []bool { return bits }
	}
	k := func(in sim.InputProvider, cycles int) Key {
		e := NewEnc()
		HashInputs(e, in, cycles)
		return e.Key()
	}
	ref := k(vec(true, false), 10)
	if ref != k(vec(true, false), 10) {
		t.Fatal("identical input streams hash differently")
	}
	if k(vec(true, true), 10) == ref {
		t.Fatal("vector mutation did not change the key")
	}
	if k(vec(true, false), 11) == ref {
		t.Fatal("cycle-count mutation did not change the key")
	}
}
