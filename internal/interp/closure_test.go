package interp

import (
	"errors"
	"testing"

	"encore/internal/ir"
)

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"", EngineCompiled, true},
		{"compiled", EngineCompiled, true},
		{"fast", EngineCompiled, true},    // retired engine name: alias
		{"closure", EngineCompiled, true}, // retired engine name: alias
		{"ref", EngineRef, true},
		{"reference", EngineRef, true},
		{"Closure", EngineCompiled, false},
		{"jit", EngineCompiled, false},
	}
	for _, c := range cases {
		got, err := ParseEngine(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseEngine(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseEngine(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, e := range []Engine{EngineCompiled, EngineRef} {
		back, err := ParseEngine(e.String())
		if err != nil || back != e {
			t.Errorf("round trip %v: got %v, %v", e, back, err)
		}
	}
}

// TestClosureFaultTrajectory runs the manually instrumented checkpoint
// region under the compiled engine with an injected fault: the compiled
// segment must hand the injection window to the reference loop, which
// must roll back, and control must return to the compiled engine to
// finish — with a fault report and counters identical to a run on the
// reference loop alone.
func TestClosureFaultTrajectory(t *testing.T) {
	mod, _, metas := buildCkptFunc()
	run := func(e Engine) (*Machine, int64) {
		mach := New(mod, Config{Engine: e})
		mach.SetRuntime(metas)
		mach.InjectFault(FaultPlan{Mode: CorruptOutput, InjectAt: 7, Bit: 3, DetectLatency: 0})
		got, err := mach.Run()
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		return mach, got
	}
	ref, rGot := run(EngineRef)
	comp, cGot := run(EngineCompiled)
	if cGot != 1998 || rGot != cGot {
		t.Errorf("recovered run: compiled=%d ref=%d, want 1998", cGot, rGot)
	}
	rr, cr := ref.FaultReport(), comp.FaultReport()
	if rr != cr {
		t.Errorf("fault reports diverge:\n ref:      %+v\n compiled: %+v", rr, cr)
	}
	if !cr.Injected || !cr.Detected || !cr.RolledBack || !cr.SameInstance {
		t.Errorf("compiled fault handling incomplete: %+v", cr)
	}
	if ref.Count != comp.Count || ref.BaseCount != comp.BaseCount {
		t.Errorf("counters: ref=(%d,%d) compiled=(%d,%d)",
			ref.Count, ref.BaseCount, comp.Count, comp.BaseCount)
	}
	if comp.HandoffsToRef == 0 || comp.HandoffsToCompiled == 0 {
		t.Errorf("compiled run never handed off: toRef=%d toCompiled=%d",
			comp.HandoffsToRef, comp.HandoffsToCompiled)
	}
}

// TestClosureBudgetTrap: budget exhaustion inside a compiled segment
// must hand the segment to the reference loop and surface the identical
// ErrBudget trap at the identical count.
func TestClosureBudgetTrap(t *testing.T) {
	build := func() *ir.Module {
		m := ir.NewModule("t")
		f := m.NewFunc("main", 0)
		b := f.NewBlock("entry")
		c := f.NewReg()
		b.Const(c, 1)
		b.Jmp(b) // endless self-loop
		f.Recompute()
		return m
	}
	for _, budget := range []int64{999, 1000, 1001} {
		ref := New(build(), Config{MaxInstrs: budget, Engine: EngineRef})
		_, rErr := ref.Run()
		comp := New(build(), Config{MaxInstrs: budget})
		_, cErr := comp.Run()
		if !errors.Is(rErr, ErrBudget) || !errors.Is(cErr, ErrBudget) {
			t.Fatalf("budget %d: want ErrBudget from both: ref=%v compiled=%v", budget, rErr, cErr)
		}
		if ref.Count != comp.Count || comp.Count != budget {
			t.Errorf("budget %d: trap counts ref=%d compiled=%d", budget, ref.Count, comp.Count)
		}
	}
}

// TestClosureOOBTrap: a plain out-of-bounds access traps from a compiled
// step with exact counters.
func TestClosureOOBTrap(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", 0)
	b := f.NewBlock("entry")
	a, v := f.NewReg(), f.NewReg()
	b.Const(a, -5)
	b.Load(v, a, 0)
	b.Ret(v)
	f.Recompute()
	mach := New(m, Config{})
	if _, err := mach.Run(); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("want ErrOutOfBounds, got %v", err)
	}
	if mach.Count != 2 {
		t.Errorf("Count = %d, want 2 (const + faulting load)", mach.Count)
	}
}

// TestClosureResetRerun: a compiled-engine machine must Reset and rerun
// (the SFI pool's usage pattern), reusing the shared compiled program.
func TestClosureResetRerun(t *testing.T) {
	mod, _, metas := buildCkptFunc()
	prog := Predecode(mod)
	mach := New(mod, Config{})
	mach.UseProgram(prog)
	mach.SetRuntime(metas)
	var first int64
	for i := 0; i < 3; i++ {
		got, err := mach.Run()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("run %d = %d, want %d", i, got, first)
		}
		mach.Reset()
	}
}

// TestClosureExternReentersCall: a custom extern that re-enters Call runs
// a nested compiled segment while the outer one is still live (the
// machine's reusable segment state is busy), and the run must match the
// reference loop's result and counters.
func TestClosureExternReentersCall(t *testing.T) {
	mod := ir.NewModule("t")
	sq := mod.NewFunc("sq", 1)
	sb := sq.NewBlock("entry")
	x, y := ir.Reg(0), sq.NewReg()
	for i := 0; i < 4; i++ {
		sb.AddI(x, x, 1)
	}
	sb.Mul(y, x, x)
	sb.Ret(y)
	sq.Recompute()
	f := mod.NewFunc("main", 0)
	b, tail := f.NewBlock("entry"), f.NewBlock("tail")
	a, r, s := f.NewReg(), f.NewReg(), f.NewReg()
	b.Const(a, 3)
	b.CallExtern(r, "reenter", a)
	b.Add(s, r, a)
	b.Jmp(tail) // the outer segment goes on past a block transfer
	tail.CallExtern(r, "reenter", s)
	tail.Add(s, s, r)
	tail.Ret(s)
	f.Recompute()
	externs := map[string]ExternFunc{"reenter": func(m *Machine, args []int64) int64 {
		v, err := m.Call(sq, args[0])
		if err != nil {
			t.Errorf("nested call: %v", err)
		}
		return v
	}}
	ref := New(mod, Config{Engine: EngineRef, Externs: externs})
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	comp := New(mod, Config{Externs: externs})
	for i := 0; i < 2; i++ {
		got, err := comp.Run()
		if err != nil || got != want || comp.Count != ref.Count || comp.BaseCount != ref.BaseCount {
			t.Fatalf("run %d: compiled (%d, %v, count %d/%d) vs ref (%d, count %d/%d)",
				i, got, err, comp.Count, comp.BaseCount, want, ref.Count, ref.BaseCount)
		}
		comp.Reset()
	}
}
