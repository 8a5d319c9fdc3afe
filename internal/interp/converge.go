package interp

import "slices"

// This file implements golden convergence: a faulted run that has been
// rolled back usually re-executes its way to exactly the golden run's
// state, shifted in time by the instructions the rollback re-executed.
// From then on it can only replay the golden run, whose end is already
// known, so a run armed with ConvergeOn ends there.
//
// The offset Δ between the run's count and the golden count is fixed
// when the rollback re-enters the target region's header: the golden
// run retired that SetRecovery at the instance's entryCount, the faulted
// run retires it again after the recovery block. At each later golden
// rung S the run stops at count S + Δ — one more nextStop event, handed
// to the reference loop and back like a capture rung — and the compiled
// engine compares the live state with rung snapshot S before it resumes
// dispatch. A match proves the rest of the run identical to the golden
// run's rest from S: execution is deterministic and no fault event is
// pending. The run then ends with final count Count + (total − S).

// ConvergeReport describes what a run armed with ConvergeOn did.
type ConvergeReport struct {
	// Converged reports that the run ended early: its state matched a
	// golden rung, so its remaining execution, output and memory equal
	// the golden run's.
	Converged bool
	// Delta is the run's count minus the golden count after the rollback
	// (the instructions the rollback re-executed). Set once the run
	// rolled back; zero otherwise.
	Delta int64
	// Final is the dynamic instruction count the full run would have
	// ended at: the golden total plus Delta. Zero unless Converged.
	Final int64
	// Checks counts the state comparisons made, failed ones included.
	Checks int
}

// convState is the bookkeeping of a run armed by ConvergeOn; the zero
// value (lad == nil) is disarmed.
type convState struct {
	lad    *Ladder
	armed  bool  // Δ is fixed and a rung lies ahead
	next   int   // index of the next candidate snapshot in lad.snaps
	stop   int64 // count at which that snapshot is compared: its count + Δ
	report ConvergeReport
}

// ConvergeOn arms the next Run or Resume to end early once its state
// rejoins the golden run whose ladder l is: a fault that has been
// detected and rolled back is followed to the first golden rung where
// the machine state — pc, stack pointer, every frame's function, frame
// pointer, registers and return point, the live checkpoint buffers,
// output, and memory — equals the rung's snapshot, shifted by the
// rollback's re-executed instructions. The run then returns the golden
// run's result with the machine left mid-run; ConvergeReport gives the
// final count the full run would have reached. Call it after Reset or
// Restore (both disarm it) and InjectFault.
//
// Only the compiled engine converges. A machine on the reference loop
// (EngineRef, Reference, or a Hook), a profiled machine (the early exit
// would leave its profile incomplete), and one with custom externs
// (which may observe the count) run to completion as without ConvergeOn,
// as does a run whose shifted end total + Δ would exceed Cfg.MaxInstrs
// (the full run traps on the budget first), and a run given the ladder
// of another module or memory geometry (Restore's conditions).
func (m *Machine) ConvergeOn(l *Ladder) {
	m.conv = convState{}
	if l.Len() == 0 || m.refOnly() || m.Cfg.Profile || m.Cfg.Externs != nil {
		return
	}
	if s := l.snaps[0]; s.prog.mod != m.Mod || s.memWords != m.Cfg.MemWords || s.stackWords != m.Cfg.StackWords {
		return
	}
	m.conv.lad = l
}

// ConvergeReport returns the report of the run armed by the last
// ConvergeOn (zero value if none).
func (m *Machine) ConvergeReport() ConvergeReport { return m.conv.report }

// armConvergence fixes Δ when detect rolls back to target's recovery
// block at the current count. The recovery block (OpRestore, then a jump
// to the header, whose first instruction is the SetRecovery the golden
// run retired at target.entryCount) costs rc, so the re-executed
// SetRecovery retires at Count + rc + 1.
func (m *Machine) armConvergence(target *regionState) {
	c := &m.conv
	var rc int64 = 1 // the recovery block's terminator
	for i := range target.meta.Recovery.Instrs {
		n, _ := stepCost(uint8(target.meta.Recovery.Instrs[i].Op))
		rc += n
	}
	c.report.Delta = m.Count + rc + 1 - target.entryCount
	if c.lad.total+c.report.Delta > m.Cfg.MaxInstrs {
		return
	}
	c.next = 0
	c.armed = true
	m.nextRung()
}

// nextRung points the armed run at the first snapshot it has not yet
// passed, or disarms it when none is left.
func (m *Machine) nextRung() {
	c := &m.conv
	snaps := c.lad.snaps
	for c.next < len(snaps) && snaps[c.next].count+c.report.Delta <= m.Count {
		c.next++
	}
	if c.next == len(snaps) {
		c.armed = false
		return
	}
	c.stop = snaps[c.next].count + c.report.Delta
}

// converge runs at compiled-engine entry once the run has reached its
// convergence stop: it compares the state at pc with the snapshot whose
// shifted count equals the current count (a run that stepped over the
// stop inside a two-count instruction has none) and reports a match.
// Otherwise it moves the stop to the next rung.
func (m *Machine) converge(pc int32) bool {
	c := &m.conv
	if s := c.lad.snaps[c.next]; s.count+c.report.Delta == m.Count {
		c.report.Checks++
		if m.matches(s, pc) {
			c.armed = false
			c.report.Converged = true
			c.report.Final = m.Count + c.lad.total - s.count
			return true
		}
	}
	c.next++
	m.nextRung()
	return false
}

// matches compares everything that feeds later execution with s: the
// cheap scalars first, then frames and checkpoint buffers, output, and
// memory over the union of both dirty ranges. Bookkeeping that never
// feeds back into execution (counters, instance numbers, entry counts,
// checkpoint-byte statistics) is left out.
func (m *Machine) matches(s *Snapshot, pc int32) bool {
	if pc != s.pc || m.sp != s.sp || len(m.frames) != len(s.frames) || len(m.output) != len(s.output) {
		return false
	}
	top := len(m.frames) - 1
	for i := top; i >= 0; i-- {
		fr, sf := &m.frames[i], &s.frames[i]
		if fr.fn != sf.fn || fr.fp != sf.fp || !slices.Equal(fr.regs, sf.regs) {
			return false
		}
		if i < top && (fr.retPC != sf.retPC || fr.retDst != sf.retDst) {
			return false
		}
		if !regionMatches(fr.region, sf.region) {
			return false
		}
	}
	return slices.Equal(m.output, s.output) &&
		memMatches(m.Mem, m.dirtyLo, m.dirtyHi, s.dataLo, s.dataHi, s.data) &&
		memMatches(m.Mem, m.dirtyStkLo, m.dirtyStkHi, s.stkLo, s.stkHi, s.stk)
}

// regionMatches compares a live checkpoint buffer with a saved one.
func regionMatches(rs *regionState, sr *savedRegion) bool {
	if rs == nil || sr == nil {
		return rs == nil && sr == nil
	}
	id := -1
	if rs.meta != nil {
		id = rs.meta.ID
	}
	return id == sr.id && rs.bytes == sr.bytes && rs.frame == sr.frame &&
		slices.Equal(rs.entries, sr.entries)
}

// memMatches compares mem with a snapshot's delta over the union of the
// machine's dirty range [lo, hi] and the snapshot's [slo, shi] (holding
// sdata): outside its own range each side is the pristine zero image.
func memMatches(mem []int64, lo, hi, slo, shi int64, sdata []int64) bool {
	if shi < slo {
		return hi < lo || allZero(mem[lo:hi+1])
	}
	if !slices.Equal(mem[slo:shi+1], sdata) {
		return false
	}
	return hi < lo ||
		(lo >= slo || allZero(mem[lo:slo])) && (hi <= shi || allZero(mem[shi+1:hi+1]))
}

func allZero(ws []int64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}
