package interp

import (
	"encore/internal/ir"
)

// This file implements the closure-compiled execution engine
// (EngineCompiled), the default interpreter tier next to the reference
// loop (ref.go). The pre-decoded instruction stream (decode.go) is
// AOT-compiled into threaded code: one Go closure per dinstr with its
// operands bound at compile time, chained by direct continuation calls
// within a basic block so the hot path is a straight run of closure
// calls — no opcode switch, no per-instruction counter updates, no
// per-instruction stop checks. Block and frame transfers go through a
// trampoline (the loop in loopCompiledFrom, fed the next pc through
// cvm.nextPC) so the Go stack never grows with the interpreted program's
// control flow.
//
// Instruction accounting is block-batched. A block's total cost is
// pre-added when execution (re-)enters it, so during the chain
//
//	cvm.count = exact count + cost of the block's unretired tail
//
// and steps that expose the counters mid-block — calls, externs,
// SetRecovery's entryCount, traps — subtract the tail (a compile-time
// constant per pc) to recover the exact value. The same pre-add doubles
// as the stop check: a stop event at count S (see nextStop) lies inside
// a segment entered at count c with total cost C (terminator cost 1
// included) iff c + C > S. The trampoline tests exactly that at every
// block (re-)entry and hands the segment to the reference loop, whose
// per-instruction checks fire the event at the precise instruction — so
// fault windows, scheduled detections, budget traps and checkpoint
// captures are bit-identical to a run on the reference loop alone, and a
// convergence check (converge.go) sees the state at its exact count.
// The reference loop hands control back as soon as the event has fired
// and the segment it stands in fits below the next stop (ref.go).
//
// Two compiled variants exist per Program — plain and profiled (the
// profiled one bumps the dense block/edge counters at terminator
// retire) — built lazily and shared by every machine using the Program,
// including concurrent SFI pool workers: compiled steps capture only
// immutable decode-time data (operand indices, region IDs, in-block
// successors, target pcs) and reach all mutable state through the
// per-run cvm.

// step is one compiled instruction. regs is threaded through the chain
// as an argument (rather than re-loaded from the cvm) so the register
// file's slice header stays in machine registers across a block.
type step func(v *cvm, regs []int64)

// cprog is a Program compiled to threaded-code closures.
type cprog struct {
	// steps[pc] runs the instruction at pc and tail-continues into its
	// block successor, assuming its cost was already pre-added.
	steps []step
	// cost[pc] is the Count cost of pc through its block's terminator,
	// inclusive: the amount the trampoline pre-adds and tests against the
	// stop when a block transfer, call or return edge (re-)enters pc,
	// which the reference loop's hand-back test mirrors. ovh[pc] is its
	// overhead share.
	cost, ovh []int64
}

// Compiled-engine exit reasons (cvm.exit).
const (
	exitRun      uint8 = iota // still executing
	exitDone                  // returned past baseDepth; retVal is the result
	exitTrap                  // err holds the trap; counters already exact
	exitDelegate              // stop event pending: hand delegPC to the reference loop
	exitSymptom               // OOB access with an undetected injected fault at delegPC
)

// cvm is the compiled engine's per-run mutable state. Compiled steps receive it as their first
// argument; everything reached through it belongs to exactly one machine.
type cvm struct {
	m   *Machine
	mem []int64

	// Shadow counters in block-batched form (see the file comment):
	// count/ovh run ahead of the exact values by the cost of the current
	// block's unretired tail.
	count, ovh int64
	stop       int64

	// Dirty-memory watermarks, mirroring the machine's.
	dLo, dHi  int64
	sLo, sHi  int64
	stackBase int64

	regs   []int64 // current frame's registers (mirror of the chain argument)
	fp     int64   // current frame's frame pointer, for OpFrame
	nextPC int32   // trampoline slot: block/frame transfers park the next pc here

	// Dense profiling counters (aliases of Machine.pBlocks/pEdges),
	// bumped by the profiled variant's terminator steps.
	pBlocks, pEdges []int64

	baseDepth int
	exit      uint8
	delegPC   int32
	retVal    int64
	err       error
	busy      bool // a segment is running on this cvm (see loopCompiledFrom)
}

// stepCost returns one decoded instruction's (Count, overhead) cost,
// matching the reference loop's accounting: checkpoint pseudo-ops count
// toward Count but also toward the overhead delta (they are excluded
// from BaseCount), and OpCkptMem costs two instructions (addr+data).
func stepCost(op uint8) (count, ovh int64) {
	switch op {
	case uint8(ir.OpSetRecovery), uint8(ir.OpCkptReg), uint8(ir.OpRestore):
		return 1, 1
	case uint8(ir.OpCkptMem):
		return 2, 2
	default:
		return 1, 0
	}
}

// compileClosures builds the threaded-code form of p. profiled selects
// the variant whose terminator steps maintain the dense block/edge
// counters.
func compileClosures(p *Program, profiled bool) *cprog {
	n := len(p.code)
	cp := &cprog{steps: make([]step, n), cost: make([]int64, n), ovh: make([]int64, n)}
	// Instruction steps, compiled back-to-front within each block so
	// every step captures its in-block successor and the block-tail costs
	// accumulate as the walk goes.
	for _, b := range p.blocks {
		base := p.blockPC[b]
		term := base + int32(len(b.Instrs))
		var next step
		var rc, ro int64
		for pc := term; pc >= base; pc-- {
			c, o := stepCost(p.code[pc].op)
			rc += c
			ro += o
			cp.cost[pc], cp.ovh[pc] = rc, ro
			s := compileStep(p, pc, next, rc, ro, profiled)
			cp.steps[pc] = s
			next = s
		}
	}
	return cp
}

// oob finishes an out-of-bounds data access at pc: with an injected,
// undetected fault pending it becomes a symptom handoff (the reference
// loop fires the detector), otherwise a trap. adjC/adjO subtract the
// block tail beyond the access, which retires its count before the
// bounds check observes the state — exactly the reference loop's order.
func (v *cvm) oob(pc int32, adjC, adjO int64, what string, addr int64) {
	v.count -= adjC
	v.ovh -= adjO
	v.delegPC = pc
	m := v.m
	if m.fault != nil && m.fault.injected && !m.fault.detected {
		v.exit = exitSymptom
		return
	}
	v.exit = exitTrap
	v.err = m.trap(ErrOutOfBounds, "%s [%d] in %s", what, addr, m.frames[len(m.frames)-1].fn.Name)
}

// compileStep compiles the instruction at pc. next is its in-block
// successor (nil only for terminators, which never use it); rc/ro are
// cost[pc]/ovh[pc], from which the exact-counter adjustments are derived
// at compile time.
func compileStep(p *Program, pc int32, next step, rc, ro int64, profiled bool) step {
	in := p.code[pc]
	switch in.op {
	case uint8(ir.OpConst):
		dst, imm := in.dst, in.imm
		return func(v *cvm, regs []int64) { regs[dst] = imm; next(v, regs) }
	case uint8(ir.OpMov):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) { regs[dst] = regs[a]; next(v, regs) }
	case uint8(ir.OpAdd):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] + regs[b]; next(v, regs) }
	case uint8(ir.OpSub):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] - regs[b]; next(v, regs) }
	case uint8(ir.OpMul):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] * regs[b]; next(v, regs) }
	case uint8(ir.OpDiv):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			if d := regs[b]; d != 0 {
				regs[dst] = regs[a] / d
			} else {
				regs[dst] = 0
			}
			next(v, regs)
		}
	case uint8(ir.OpRem):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			if d := regs[b]; d != 0 {
				regs[dst] = regs[a] % d
			} else {
				regs[dst] = 0
			}
			next(v, regs)
		}
	case uint8(ir.OpAnd):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] & regs[b]; next(v, regs) }
	case uint8(ir.OpOr):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] | regs[b]; next(v, regs) }
	case uint8(ir.OpXor):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] ^ regs[b]; next(v, regs) }
	case uint8(ir.OpShl):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] << (uint64(regs[b]) & 63); next(v, regs) }
	case uint8(ir.OpShr):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] >> (uint64(regs[b]) & 63); next(v, regs) }
	case uint8(ir.OpNeg):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) { regs[dst] = -regs[a]; next(v, regs) }
	case uint8(ir.OpNot):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) { regs[dst] = ^regs[a]; next(v, regs) }
	case uint8(ir.OpAddI):
		dst, a, imm := in.dst, in.a, in.imm
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] + imm; next(v, regs) }
	case uint8(ir.OpMulI):
		dst, a, imm := in.dst, in.a, in.imm
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] * imm; next(v, regs) }
	case uint8(ir.OpAndI):
		dst, a, imm := in.dst, in.a, in.imm
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] & imm; next(v, regs) }
	case uint8(ir.OpShlI):
		dst, a := in.dst, in.a
		sh := uint64(in.imm) & 63
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] << sh; next(v, regs) }
	case uint8(ir.OpShrI):
		dst, a := in.dst, in.a
		sh := uint64(in.imm) & 63
		return func(v *cvm, regs []int64) { regs[dst] = regs[a] >> sh; next(v, regs) }
	case uint8(ir.OpFAdd):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = ir.FloatBits(ir.BitsFloat(regs[a]) + ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFSub):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = ir.FloatBits(ir.BitsFloat(regs[a]) - ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFMul):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = ir.FloatBits(ir.BitsFloat(regs[a]) * ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFDiv):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = ir.FloatBits(ir.BitsFloat(regs[a]) / ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFNeg):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) {
			regs[dst] = ir.FloatBits(-ir.BitsFloat(regs[a]))
			next(v, regs)
		}
	case uint8(ir.OpIToF):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) { regs[dst] = ir.FloatBits(float64(regs[a])); next(v, regs) }
	case uint8(ir.OpFToI):
		dst, a := in.dst, in.a
		return func(v *cvm, regs []int64) { regs[dst] = int64(ir.BitsFloat(regs[a])); next(v, regs) }
	case uint8(ir.OpEq):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = b2i(regs[a] == regs[b]); next(v, regs) }
	case uint8(ir.OpNe):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = b2i(regs[a] != regs[b]); next(v, regs) }
	case uint8(ir.OpLt):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = b2i(regs[a] < regs[b]); next(v, regs) }
	case uint8(ir.OpLe):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) { regs[dst] = b2i(regs[a] <= regs[b]); next(v, regs) }
	case uint8(ir.OpFEq):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = b2i(ir.BitsFloat(regs[a]) == ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFLt):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = b2i(ir.BitsFloat(regs[a]) < ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpFLe):
		dst, a, b := in.dst, in.a, in.b
		return func(v *cvm, regs []int64) {
			regs[dst] = b2i(ir.BitsFloat(regs[a]) <= ir.BitsFloat(regs[b]))
			next(v, regs)
		}
	case uint8(ir.OpLoad):
		dst, a, off := in.dst, in.a, in.imm
		pcv := pc
		adjC, adjO := rc-1, ro
		return func(v *cvm, regs []int64) {
			addr := regs[a] + off
			mem := v.mem
			if addr < 0 || addr >= int64(len(mem)) {
				v.oob(pcv, adjC, adjO, "load", addr)
				return
			}
			regs[dst] = mem[addr]
			next(v, regs)
		}
	case uint8(ir.OpStore):
		a, b, off := in.a, in.b, in.imm
		pcv := pc
		adjC, adjO := rc-1, ro
		return func(v *cvm, regs []int64) {
			addr := regs[a] + off
			mem := v.mem
			if addr < 0 || addr >= int64(len(mem)) {
				v.oob(pcv, adjC, adjO, "store", addr)
				return
			}
			mem[addr] = regs[b]
			if addr >= v.stackBase {
				if addr < v.sLo {
					v.sLo = addr
				}
				if addr > v.sHi {
					v.sHi = addr
				}
			} else {
				if addr < v.dLo {
					v.dLo = addr
				}
				if addr > v.dHi {
					v.dHi = addr
				}
			}
			next(v, regs)
		}
	case uint8(ir.OpFrame):
		dst, off := in.dst, in.imm
		return func(v *cvm, regs []int64) { regs[dst] = v.fp + off; next(v, regs) }
	case uint8(ir.OpCall):
		c := p.calls[in.aux]
		fn, args, dst := c.fn, c.args, c.dst
		entry := c.entry
		retPC := pc + 1
		adjC, adjO := rc-1, ro
		return func(v *cvm, regs []int64) {
			// Make the counters exact across the call: the pre-added tail
			// of the caller's block is re-added when the return re-enters retPC,
			// so nested frames never see inflated counts at their own sync
			// points (SetRecovery, externs, traps).
			v.count -= adjC
			v.ovh -= adjO
			m := v.m
			fr := &m.frames[len(m.frames)-1]
			fr.retPC, fr.retDst = retPC, dst
			nf, err := m.newFrame(fn)
			if err != nil {
				v.exit = exitTrap
				v.err = err
				return
			}
			for i, r := range args {
				nf.regs[i] = regs[r]
			}
			v.regs = nf.regs
			v.fp = nf.fp
			if entry < 0 {
				panic("interp: compiled engine: call to function without body")
			}
			v.nextPC = entry
		}
	case uint8(ir.OpExtern):
		aux, dst := in.aux, in.dst
		name, eargs := p.externs[in.aux].name, p.externs[in.aux].args
		retPC := pc + 1
		adjC, adjO := rc-1, ro
		return func(v *cvm, regs []int64) {
			m := v.m
			ef := m.externFns[aux]
			if ef == nil {
				v.count -= adjC
				v.ovh -= adjO
				v.exit = exitTrap
				v.err = m.trap(ErrExtern, "%q", name)
				return
			}
			m.extArgs = m.extArgs[:0]
			for _, r := range eargs {
				m.extArgs = append(m.extArgs, regs[r])
			}
			// Externs may observe the machine or re-enter Call: sync exact
			// shadow state out, and reload it (plus frame pointers, which a
			// nested Call's frame growth can invalidate) afterwards.
			m.Count = v.count - adjC
			m.BaseCount = m.Count - (v.ovh - adjO)
			m.dirtyLo, m.dirtyHi = v.dLo, v.dHi
			m.dirtyStkLo, m.dirtyStkHi = v.sLo, v.sHi
			val := ef(m, m.extArgs)
			v.count = m.Count + adjC
			v.ovh = m.Count - m.BaseCount + adjO
			v.dLo, v.dHi = m.dirtyLo, m.dirtyHi
			v.sLo, v.sHi = m.dirtyStkLo, m.dirtyStkHi
			fr := &m.frames[len(m.frames)-1]
			regs = fr.regs
			v.regs = regs
			v.fp = fr.fp
			regs[dst] = val
			if v.count > v.stop {
				// The handler advanced the count into a stop event (budget,
				// fault window or capture rung): hand the rest of the block
				// to the reference loop, which fires the event at once.
				v.count -= adjC
				v.ovh -= adjO
				v.exit = exitDelegate
				v.delegPC = retPC
				return
			}
			next(v, regs)
		}
	case uint8(ir.OpSetRecovery):
		adjC := rc - 1
		if in.imm < 0 {
			// Disarm at an unselected region header.
			return func(v *cvm, regs []int64) {
				m := v.m
				fr := &m.frames[len(m.frames)-1]
				if fr.region != nil {
					m.freeRegion(fr.region)
					fr.region = nil
				}
				next(v, regs)
			}
		}
		// The region ID (not its meta) is bound at compile time: compiled
		// programs are shared across pooled machines, and each machine
		// registers its own RegionMeta table via SetRuntime.
		rid := int(in.imm)
		return func(v *cvm, regs []int64) {
			m := v.m
			fr := &m.frames[len(m.frames)-1]
			meta := m.regions[rid]
			m.instanceSeq++
			m.RegionEntries++
			if fr.region != nil {
				m.freeRegion(fr.region)
			}
			rs := m.allocRegion()
			rs.meta = meta
			rs.instance = m.instanceSeq
			rs.frame = len(m.frames) - 1
			rs.entryCount = v.count - adjC
			fr.region = rs
			next(v, regs)
		}
	case uint8(ir.OpCkptReg):
		a := in.a
		return func(v *cvm, regs []int64) {
			m := v.m
			fr := &m.frames[len(m.frames)-1]
			if fr.region != nil {
				fr.region.entries = append(fr.region.entries,
					ckptEntry{isMem: false, key: int64(a), val: regs[a]})
				fr.region.bytes += 4
				m.CkptRegBytes += 4
				if fr.region.bytes > m.MaxBufferBytes {
					m.MaxBufferBytes = fr.region.bytes
				}
			}
			next(v, regs)
		}
	case uint8(ir.OpCkptMem):
		a, off := in.a, in.imm
		// OpCkptMem costs two counts; its OOB trap fires after
		// only the first (plus one overhead), hence the -1 adjustments.
		adjC, adjO := rc-1, ro-1
		return func(v *cvm, regs []int64) {
			m := v.m
			addr := regs[a] + off
			mem := v.mem
			if addr < 0 || addr >= int64(len(mem)) {
				v.count -= adjC
				v.ovh -= adjO
				v.exit = exitTrap
				v.err = m.trap(ErrOutOfBounds, "ckptmem [%d] in %s", addr, m.frames[len(m.frames)-1].fn.Name)
				return
			}
			fr := &m.frames[len(m.frames)-1]
			if fr.region != nil {
				fr.region.entries = append(fr.region.entries,
					ckptEntry{isMem: true, key: addr, val: mem[addr]})
				fr.region.bytes += 8
				m.CkptMemBytes += 8
				if fr.region.bytes > m.MaxBufferBytes {
					m.MaxBufferBytes = fr.region.bytes
				}
			}
			next(v, regs)
		}
	case uint8(ir.OpRestore):
		return func(v *cvm, regs []int64) {
			fr := &v.m.frames[len(v.m.frames)-1]
			if fr.region != nil {
				mem := v.mem
				for i := len(fr.region.entries) - 1; i >= 0; i-- {
					e := fr.region.entries[i]
					if e.isMem {
						mem[e.key] = e.val
						if e.key >= v.stackBase {
							if e.key < v.sLo {
								v.sLo = e.key
							}
							if e.key > v.sHi {
								v.sHi = e.key
							}
						} else {
							if e.key < v.dLo {
								v.dLo = e.key
							}
							if e.key > v.dHi {
								v.dHi = e.key
							}
						}
					} else {
						regs[e.key] = e.val
					}
				}
				fr.region.entries = fr.region.entries[:0]
			}
			next(v, regs)
		}

	case dJmp:
		target := in.aux
		if profiled {
			blk, eb := in.dst, in.b
			return func(v *cvm, _ []int64) {
				v.pBlocks[blk]++
				v.pEdges[eb]++
				v.nextPC = target
			}
		}
		return func(v *cvm, _ []int64) { v.nextPC = target }
	case dBr:
		cond := in.a
		thenPC, elsePC := in.aux, int32(in.imm)
		if profiled {
			blk, eb := in.dst, in.b
			return func(v *cvm, regs []int64) {
				v.pBlocks[blk]++
				if regs[cond] != 0 {
					v.pEdges[eb]++
					v.nextPC = thenPC
				} else {
					v.pEdges[eb+1]++
					v.nextPC = elsePC
				}
			}
		}
		return func(v *cvm, regs []int64) {
			if regs[cond] != 0 {
				v.nextPC = thenPC
			} else {
				v.nextPC = elsePC
			}
		}
	case dSwitch:
		cond := in.a
		targets := p.switches[in.aux]
		if profiled {
			blk := in.dst
			eb := int64(in.b)
			return func(v *cvm, regs []int64) {
				i := regs[cond]
				if i < 0 {
					i = 0
				}
				if i >= int64(len(targets)) {
					i = int64(len(targets)) - 1
				}
				v.pBlocks[blk]++
				v.pEdges[eb+i]++
				v.nextPC = targets[i]
			}
		}
		return func(v *cvm, regs []int64) {
			i := regs[cond]
			if i < 0 {
				i = 0
			}
			if i >= int64(len(targets)) {
				i = int64(len(targets)) - 1
			}
			v.nextPC = targets[i]
		}
	case dRet:
		val := in.a
		if profiled {
			blk := in.dst
			return func(v *cvm, regs []int64) {
				v.pBlocks[blk]++
				var ret int64
				if val >= 0 {
					ret = regs[val]
				}
				m := v.m
				m.popFrame()
				if len(m.frames) <= v.baseDepth {
					v.retVal = ret
					v.exit = exitDone
					return
				}
				fr := &m.frames[len(m.frames)-1]
				if fr.retDst >= 0 {
					fr.regs[fr.retDst] = ret
				}
				v.regs = fr.regs
				v.fp = fr.fp
				v.nextPC = fr.retPC
			}
		}
		return func(v *cvm, regs []int64) {
			var ret int64
			if val >= 0 {
				ret = regs[val]
			}
			m := v.m
			m.popFrame()
			if len(m.frames) <= v.baseDepth {
				v.retVal = ret
				v.exit = exitDone
				return
			}
			fr := &m.frames[len(m.frames)-1]
			if fr.retDst >= 0 {
				fr.regs[fr.retDst] = ret
			}
			v.regs = fr.regs
			v.fp = fr.fp
			v.nextPC = fr.retPC
		}
	default:
		op, pcv := in.op, pc
		adjC, adjO := rc-1, ro
		return func(v *cvm, _ []int64) {
			v.count -= adjC
			v.ovh -= adjO
			v.exit = exitTrap
			v.err = v.m.trap(ErrOutOfBounds, "bad opcode %d at pc %d", op, pcv)
		}
	}
}

// loopCompiled enters the compiled engine for a fresh call.
func (m *Machine) loopCompiled() (int64, error) {
	p := m.program()
	fr := &m.frames[len(m.frames)-1]
	pc, ok := p.entry[fr.fn]
	if !ok {
		m.popFrame()
		return 0, m.trap(ErrNoMain, "function %s has no body", fr.fn.Name)
	}
	return m.loopCompiledFrom(len(m.frames)-1, pc)
}

// nextStop returns the dynamic instruction count the compiled engine must
// not run past: the instruction budget, tightened to the next pending
// fault event (before injection that is InjectAt-1, covering both the
// between-instruction register-file strike at InjectAt and the
// post-instruction output corruption of the first instruction retiring
// at InjectAt; after injection it is the scheduled detection point — a
// settled fault has no pending events), and tightened again to the next
// checkpoint-capture rung when a RunWithSnapshots pass is active, and to
// the next convergence check of a run armed with ConvergeOn.
func (m *Machine) nextStop() int64 {
	stop := m.Cfg.MaxInstrs
	if m.fault != nil {
		switch {
		case !m.fault.injected:
			if ia := m.fault.plan.InjectAt - 1; ia < stop {
				stop = ia
			}
		case !m.fault.detected:
			if da := m.fault.detectAt; da < stop {
				stop = da
			}
		}
	}
	if len(m.snapRungs) > 0 && m.snapRungs[0] < stop {
		stop = m.snapRungs[0]
	}
	if m.conv.armed && m.conv.stop < stop {
		stop = m.conv.stop
	}
	return stop
}

// loopCompiledFrom runs the compiled engine from an arbitrary pc with an
// explicit base frame depth — the entry point both for fresh calls and
// for the reference loop handing control back. A checkpoint rung the run
// has reached is captured first, and a run armed with ConvergeOn that has
// reached its next convergence check ends here if its state matches the
// golden rung (converge.go). Any block holding a stop event (fault
// window, scheduled detection, budget exhaustion, capture rung) is handed
// to the reference loop, whose per-instruction checks handle the event
// at the exact instruction and which hands control back once the event
// has fired; a symptom (out-of-bounds under a pending fault) goes
// through symptomHandoff.
func (m *Machine) loopCompiledFrom(baseDepth int, pc int32) (int64, error) {
	p := m.program()
	cp := p.closures(m.Prof != nil)
	m.sizeDense(p)
	if len(m.snapRungs) > 0 && m.Count >= m.snapRungs[0] {
		m.mergeDense(p)
		m.captureSnapshot(pc)
	}
	if m.conv.armed && m.Count >= m.conv.stop && m.converge(pc) {
		return m.conv.lad.ret, nil
	}
	fr := &m.frames[len(m.frames)-1]
	// The machine keeps one cvm for its segments: a segment has ended
	// before it hands off below (and the handoff may re-enter here), so
	// only a custom extern re-entering Call mid-segment finds it busy and
	// takes a fresh one.
	v := m.cv
	if v == nil || v.busy {
		v = new(cvm)
		if m.cv == nil {
			m.cv = v
		}
	}
	*v = cvm{
		busy:      true,
		m:         m,
		mem:       m.Mem,
		count:     m.Count,
		ovh:       m.Count - m.BaseCount,
		stop:      m.nextStop(),
		dLo:       m.dirtyLo,
		dHi:       m.dirtyHi,
		sLo:       m.dirtyStkLo,
		sHi:       m.dirtyStkHi,
		stackBase: m.stackBase,
		regs:      fr.regs,
		fp:        fr.fp,
		pBlocks:   m.pBlocks,
		pEdges:    m.pEdges,
		baseDepth: baseDepth,
	}
	// The trampoline: every block transfer, call and return edge parks
	// its target pc and returns here; re-entering pc pre-adds the cost of
	// its block tail, unless that crosses the stop.
	for v.nextPC = pc; v.exit == exitRun; {
		pc := v.nextPC
		if v.count+cp.cost[pc] > v.stop {
			v.exit = exitDelegate
			v.delegPC = pc
			break
		}
		v.count += cp.cost[pc]
		v.ovh += cp.ovh[pc]
		cp.steps[pc](v, v.regs)
	}
	// Write the shadow counters back and fold the dense profile counters
	// into the Profile maps: the machine fields are authoritative again.
	m.Count, m.BaseCount = v.count, v.count-v.ovh
	m.dirtyLo, m.dirtyHi = v.dLo, v.dHi
	m.dirtyStkLo, m.dirtyStkHi = v.sLo, v.sHi
	m.mergeDense(p)
	v.busy = false
	switch v.exit {
	case exitDone:
		return v.retVal, nil
	case exitTrap:
		return 0, v.err
	case exitSymptom:
		return m.symptomHandoff(p, baseDepth, v.delegPC)
	}
	m.HandoffsToRef++
	return m.enterRef(p, baseDepth, v.delegPC)
}

// symptomHandoff reroutes an out-of-bounds access that struck while an
// injected fault is pending detection: address faults are "highly
// visible symptoms" (§4.3), so — exactly like the reference loop's
// symptomTrap path — the access retires its count without executing and
// detection is rescheduled to fire immediately. The reference loop takes
// over at the same position and runs the detection.
func (m *Machine) symptomHandoff(p *Program, baseDepth int, pc int32) (int64, error) {
	m.fault.detectAt = m.Count
	m.HandoffsToRef++
	return m.enterRef(p, baseDepth, pc)
}

// enterRef continues the segment at pc on the reference loop. Frames
// the segment pushed get reference-form return points, and — with
// profiling on — their in-flight blocks are credited: the compiled
// engine counts a block when its terminator retires, the reference loop
// when it enters the block, and it returns into parked frames mid-block
// without counting. loopRefFrom credits the top frame's block itself.
func (m *Machine) enterRef(p *Program, baseDepth int, pc int32) (int64, error) {
	for d := baseDepth; d < len(m.frames)-1; d++ {
		f := &m.frames[d]
		f.retTo.b, f.retTo.idx = p.refPos(f.retPC)
		f.retTo.dst = ir.Reg(f.retDst)
		if m.Prof != nil {
			m.Prof.Block[f.retTo.b]++
		}
	}
	b, idx := p.refPos(pc)
	return m.loopRefFrom(baseDepth, b, idx)
}

// closures returns the Program's compiled form for the requested
// profiling variant, building it on first use. Compiled programs are
// immutable and shared across machines, concurrent ones included.
func (p *Program) closures(profiled bool) *cprog {
	i := 0
	if profiled {
		i = 1
	}
	p.closOnce[i].Do(func() {
		p.clos[i] = compileClosures(p, profiled)
	})
	return p.clos[i]
}
