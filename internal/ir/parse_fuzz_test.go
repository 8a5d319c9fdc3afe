package ir

import (
	"math/rand"
	"testing"
)

// randomModule generates a structurally valid random module exercising
// every printable construct: globals, multiple functions, calls, all
// instruction families, and every terminator kind.
func randomModule(rng *rand.Rand) *Module {
	m := NewModule("fuzz")
	g1 := m.NewGlobal("alpha", 16)
	g2 := m.NewGlobal("beta", 8)
	gs := []*Global{g1, g2}

	var funcs []*Func
	nfuncs := 1 + rng.Intn(3)
	for fi := 0; fi < nfuncs; fi++ {
		f := m.NewFunc("fn"+string(rune('a'+fi)), rng.Intn(3))
		f.Frame(int64(rng.Intn(8)))
		funcs = append(funcs, f)
		nblocks := 1 + rng.Intn(4)
		blocks := make([]*Block, nblocks)
		for i := range blocks {
			blocks[i] = f.NewBlock("b")
		}
		// Ensure at least a few registers exist.
		for f.NumRegs < 4 {
			f.NewReg()
		}
		reg := func() Reg { return Reg(rng.Intn(f.NumRegs)) }
		for bi, b := range blocks {
			n := rng.Intn(5)
			for i := 0; i < n; i++ {
				switch rng.Intn(9) {
				case 0:
					b.Const(reg(), int64(rng.Intn(100)-50))
				case 1:
					b.Bin(OpAdd, reg(), reg(), reg())
				case 2:
					b.Bin(OpFMul, reg(), reg(), reg())
				case 3:
					b.Load(reg(), reg(), int64(rng.Intn(7)-3))
				case 4:
					b.Store(reg(), int64(rng.Intn(7)-3), reg())
				case 5:
					b.GlobalAddr(reg(), gs[rng.Intn(len(gs))])
				case 6:
					b.FrameAddr(reg(), int64(rng.Intn(4)))
				case 7:
					b.ImmOp(OpAddI, reg(), reg(), int64(rng.Intn(100)-50))
				default:
					if fi > 0 {
						callee := funcs[rng.Intn(fi)]
						args := make([]Reg, callee.NumParams)
						for j := range args {
							args[j] = reg()
						}
						b.Call(reg(), callee, args...)
					} else {
						b.CallExtern(reg(), "mix", reg())
					}
				}
			}
			// Terminator.
			switch rng.Intn(4) {
			case 0:
				b.Jmp(blocks[rng.Intn(nblocks)])
			case 1:
				b.Br(reg(), blocks[rng.Intn(nblocks)], blocks[rng.Intn(nblocks)])
			case 2:
				b.Switch(reg(), blocks[rng.Intn(nblocks)], blocks[rng.Intn(nblocks)])
			default:
				if rng.Intn(2) == 0 {
					b.Ret(reg())
				} else {
					b.RetVoid()
				}
			}
			_ = bi
		}
		f.Recompute()
	}
	return m
}

// TestParseFuzzRoundTrip: print→parse→print is the identity on hundreds
// of random modules covering the whole instruction surface.
func TestParseFuzzRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		m := randomModule(rng)
		if err := m.Verify(); err != nil {
			t.Fatalf("trial %d: generator emitted invalid module: %v", trial, err)
		}
		text := m.String()
		m2, err := Parse(text)
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, text)
		}
		if got := m2.String(); got != text {
			t.Fatalf("trial %d: round trip diverged\n--- printed ---\n%s\n--- reparsed ---\n%s",
				trial, text, got)
		}
	}
}

// FuzzParse feeds arbitrary text to Parse, which must return an error or
// a verified module and never panic — encore-serve parses inline
// modules straight off the network. A module that parses must print,
// reparse, and print again to the same text. The checked-in corpus
// (testdata/fuzz/FuzzParse) holds inputs that once crashed the parser.
func FuzzParse(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		f.Add(randomModule(rng).String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("Parse returned an invalid module: %v", err)
		}
		text := m.String()
		m2, err := Parse(text)
		if err != nil {
			t.Fatalf("printed module does not reparse: %v\n%s", err, text)
		}
		if got := m2.String(); got != text {
			t.Fatalf("print/reparse diverged\n--- printed ---\n%s\n--- reparsed ---\n%s", text, got)
		}
	})
}
