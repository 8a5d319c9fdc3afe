package interp

import (
	"encore/internal/ir"
)

// Run executes the module's main function with no arguments.
func (m *Machine) Run() (int64, error) {
	main := m.Mod.FuncByName("main")
	if main == nil {
		return 0, ErrNoMain
	}
	return m.Call(main)
}

// Call executes fn with the given arguments and returns its result.
//
// Dispatch is split across two engines (engine.go). The reference path
// (ref.go) walks the ir structures directly and carries the full
// observation machinery; it is selected by a Hook, by Config.Reference /
// EngineRef, and for the active phase of a fault, and it doubles as the
// semantic oracle for the equivalence tests. Otherwise the run starts on
// the closure-compiled engine (closure.go).
func (m *Machine) Call(fn *ir.Func, args ...int64) (int64, error) {
	if err := m.pushFrame(fn, args); err != nil {
		return 0, err
	}
	if m.refOnly() || (m.fault != nil && m.fault.injected && !m.fault.detected) {
		return m.loopRef()
	}
	// An armed-but-uninjected fault plan still starts on the compiled
	// engine: it hands the block holding the injection point to the
	// reference loop, which runs the active phase of the fault
	// (injection through detection) and hands control back once the
	// fault settles.
	return m.loopCompiled()
}

// refOnly reports whether the machine is configured to run every
// instruction on the reference loop.
func (m *Machine) refOnly() bool {
	return m.Cfg.Hook != nil || m.Cfg.Reference || m.Cfg.Engine == EngineRef
}

// newFrame pushes an activation record for fn, reusing the register slice
// of a previously popped frame slot when possible (the interpreter's
// dominant allocation source). Reused registers are zeroed to preserve
// fresh-frame semantics.
func (m *Machine) newFrame(fn *ir.Func) (*frame, error) {
	if len(m.frames) >= m.Cfg.MaxDepth {
		return nil, m.trap(ErrCallDepth, "calling %s", fn.Name)
	}
	if m.sp+fn.FrameSize > m.stackTop {
		return nil, m.trap(ErrStack, "frame for %s needs %d words", fn.Name, fn.FrameSize)
	}
	var fr *frame
	if len(m.frames) < cap(m.frames) {
		m.frames = m.frames[:len(m.frames)+1]
		fr = &m.frames[len(m.frames)-1]
		if cap(fr.regs) >= fn.NumRegs {
			fr.regs = fr.regs[:fn.NumRegs]
			clear(fr.regs)
		} else {
			fr.regs = make([]int64, fn.NumRegs)
		}
	} else {
		m.frames = append(m.frames, frame{regs: make([]int64, fn.NumRegs)})
		fr = &m.frames[len(m.frames)-1]
	}
	fr.fn = fn
	fr.fp = m.sp
	fr.region = nil
	fr.retTo.b, fr.retTo.idx, fr.retTo.dst = nil, 0, ir.NoReg
	fr.retPC, fr.retDst = 0, -1
	m.sp += fn.FrameSize
	return fr, nil
}

func (m *Machine) pushFrame(fn *ir.Func, args []int64) error {
	fr, err := m.newFrame(fn)
	if err != nil {
		return err
	}
	copy(fr.regs, args)
	return nil
}

func (m *Machine) popFrame() {
	fr := &m.frames[len(m.frames)-1]
	m.sp = fr.fp
	if fr.region != nil {
		m.freeRegion(fr.region)
		fr.region = nil
	}
	m.frames = m.frames[:len(m.frames)-1]
}

// allocRegion takes a checkpoint buffer from the machine's free list.
func (m *Machine) allocRegion() *regionState {
	if n := len(m.regionFree); n > 0 {
		rs := m.regionFree[n-1]
		m.regionFree = m.regionFree[:n-1]
		rs.entries = rs.entries[:0]
		rs.bytes = 0
		return rs
	}
	return &regionState{}
}

func (m *Machine) freeRegion(rs *regionState) {
	rs.meta = nil
	m.regionFree = append(m.regionFree, rs)
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// builtinExterns are always available. "emit" appends its argument to the
// machine's output stream; "mix" is an opaque value combiner used by
// workloads to force statically-unanalyzable data flow.
var builtinExterns = map[string]ExternFunc{
	"emit": func(m *Machine, args []int64) int64 {
		if len(args) > 0 {
			m.output = append(m.output, args[0])
			return args[0]
		}
		return 0
	},
	"mix": func(m *Machine, args []int64) int64 {
		h := uint64(14695981039346656037)
		for _, a := range args {
			h ^= uint64(a)
			h *= 1099511628211
		}
		return int64(h)
	},
}
