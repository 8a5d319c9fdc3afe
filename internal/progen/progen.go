// Package progen is the generative-validation subsystem: a deterministic,
// seed-driven generator of well-formed IR programs (knobs for control
// depth, loop/store/alias/call/break density, helper functions, frame
// usage) plus differential-testing oracles layered on top of it. The
// oracles turn the paper's central claims into machine-checked invariants
// over arbitrarily many programs: the idempotence oracle re-executes
// covered regions via corruption-free phantom faults and diffs final
// state (any mismatch is an Equations 1–4 / loop meta-summary soundness
// bug), the recovery oracle injects real faults at every sampled dynamic
// instruction and demands byte-identical recovery inside covered regions,
// and the engine oracle diffs the compiled engine against the reference
// loop. All three are exposed as native fuzz targets in this
// package's tests and as a short-budget smoke via `make fuzz-smoke`.
package progen

import (
	"fmt"
	"math/rand"

	"encore/internal/ir"
)

// Params fully determines one generated program: equal Params generate
// bit-identical modules. The zero value is usable (Normalized clamps every
// field into its supported range).
type Params struct {
	Seed uint64

	Depth   int // control-structure nesting depth, clamped to 1..3
	Stmts   int // statements per straight-line sequence, clamped to 2..8
	Helpers int // callee functions generated before main, clamped to 0..2
	Globals int // global arrays, clamped to 1..3

	GlobalWords int64 // words per global; clamped to a power of two in 8..32
	FrameSlots  int64 // stack-frame words per function, clamped to 0..4

	// Density knobs, each clamped to 0..7, weighing how often the
	// corresponding statement shape is emitted.
	LoopDensity  int // counted loops (and loop-sum patterns)
	StoreDensity int // stores and read-modify-write WAR generators
	AliasDensity int // computed (masked-index) addresses vs constant offsets
	CallDensity  int // helper calls (needs Helpers > 0)
	BreakDensity int // conditional mid-loop exits (multi-exit loops)

	// Externs permits opaque extern calls ("emit"/"mix"); these make the
	// enclosing region unanalyzable, so they exercise the Unknown-class
	// and uncovered-code paths.
	Externs bool
	// Profiled compiles under the Profiled alias mode where an oracle
	// honours it (engine equivalence and instrumentation transparency).
	Profiled bool

	// MaxPoints caps how many dynamic injection points the fault-driven
	// oracles sample per program; 0 selects a default suited to fuzzing.
	MaxPoints int
}

// Normalized returns p with every field clamped into its supported range.
func (p Params) Normalized() Params {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	p.Depth = clamp(p.Depth, 1, 3)
	p.Stmts = clamp(p.Stmts, 2, 8)
	p.Helpers = clamp(p.Helpers, 0, 2)
	p.Globals = clamp(p.Globals, 1, 3)
	switch {
	case p.GlobalWords < 16:
		p.GlobalWords = 8
	case p.GlobalWords < 32:
		p.GlobalWords = 16
	default:
		p.GlobalWords = 32
	}
	p.FrameSlots = int64(clamp(int(p.FrameSlots), 0, 4))
	p.LoopDensity = clamp(p.LoopDensity, 0, 7)
	p.StoreDensity = clamp(p.StoreDensity, 0, 7)
	p.AliasDensity = clamp(p.AliasDensity, 0, 7)
	p.CallDensity = clamp(p.CallDensity, 0, 7)
	p.BreakDensity = clamp(p.BreakDensity, 0, 7)
	if p.MaxPoints < 0 {
		p.MaxPoints = 0
	}
	return p
}

// maxBlocksPerFunc bounds CFG growth: once a function reaches this many
// blocks, only straight-line statements are emitted.
const maxBlocksPerFunc = 160

// Generate builds the program determined by p. The module always passes
// ir.Verify and every generated program terminates by construction
// (counted loops with read-only induction registers, helper calls ordered
// to forbid recursion, all addresses masked in bounds).
func Generate(p Params) *ir.Module {
	p = p.Normalized()
	rng := rand.New(rand.NewSource(int64(p.Seed)))
	mod := ir.NewModule(fmt.Sprintf("progen-%d", p.Seed))
	var globals []*ir.Global
	for i := 0; i < p.Globals; i++ {
		gl := mod.NewGlobal(string(rune('A'+i)), p.GlobalWords)
		gl.Init = make([]int64, p.GlobalWords)
		for j := range gl.Init {
			gl.Init[j] = int64(j*11 + i*5 + 3)
		}
		globals = append(globals, gl)
	}
	var helpers []*ir.Func
	for i := 0; i < p.Helpers; i++ {
		f := mod.NewFunc(fmt.Sprintf("h%d", i), rng.Intn(3))
		g := newGen(p, rng, f, globals, helpers)
		depth := p.Depth - 1
		if depth < 0 {
			depth = 0
		}
		g.seq(depth, 1+rng.Intn(p.Stmts))
		g.cur.Ret(g.val())
		f.Recompute()
		helpers = append(helpers, f)
	}
	f := mod.NewFunc("main", 0)
	g := newGen(p, rng, f, globals, helpers)
	g.seq(p.Depth, p.Stmts)
	g.cur.Ret(g.val())
	f.Recompute()
	return mod
}

// gen carries the per-function generation state.
type gen struct {
	p       Params
	rng     *rand.Rand
	f       *ir.Func
	globals []*ir.Global
	callees []*ir.Func
	bases   []ir.Reg // global base addresses (read-only)
	pool    []ir.Reg // clobber-safe scratch registers (params included)
	ro      []ir.Reg // live loop induction registers (read-only)
	frame   ir.Reg   // frame base address, NoReg when FrameSlots == 0
	cur     *ir.Block
}

// newGen opens a function: the entry block materializes the global base
// addresses, a small constant pool, and — when frames are in use — the
// frame base plus an initializing store to every frame slot, so no
// generated load ever observes uninitialized stack residue (which would
// make re-execution trajectories input-dependent in ways no analysis
// models).
func newGen(p Params, rng *rand.Rand, f *ir.Func, globals []*ir.Global, callees []*ir.Func) *gen {
	g := &gen{p: p, rng: rng, f: f, globals: globals, callees: callees, frame: ir.NoReg}
	g.cur = f.NewBlock("entry")
	for _, gl := range globals {
		r := f.NewReg()
		g.cur.GlobalAddr(r, gl)
		g.bases = append(g.bases, r)
	}
	for i := 0; i < f.NumParams; i++ {
		g.pool = append(g.pool, ir.Reg(i))
	}
	for i := 0; i < 4; i++ {
		r := f.NewReg()
		g.cur.Const(r, int64(rng.Intn(64)+1))
		g.pool = append(g.pool, r)
	}
	if p.FrameSlots > 0 {
		f.Frame(p.FrameSlots)
		g.frame = f.NewReg()
		g.cur.FrameAddr(g.frame, 0)
		for s := int64(0); s < p.FrameSlots; s++ {
			g.cur.Store(g.frame, s, g.pool[rng.Intn(len(g.pool))])
		}
	}
	return g
}

// val picks any readable register; dst picks a clobber-safe one (never a
// live induction variable or address register).
func (g *gen) val() ir.Reg {
	n := len(g.pool) + len(g.ro)
	i := g.rng.Intn(n)
	if i < len(g.pool) {
		return g.pool[i]
	}
	return g.ro[i-len(g.pool)]
}
func (g *gen) dst() ir.Reg  { return g.pool[g.rng.Intn(len(g.pool))] }
func (g *gen) base() ir.Reg { return g.bases[g.rng.Intn(len(g.bases))] }

// addr returns a (base register, constant offset) pair that is always in
// bounds: either a constant offset into a global, or — with probability
// scaled by AliasDensity — a computed address whose index is masked to the
// global's size, which static alias analysis must treat as covering the
// whole array.
func (g *gen) addr() (ir.Reg, int64) {
	if g.rng.Intn(8) < g.p.AliasDensity {
		idx := g.f.NewReg()
		g.cur.AndI(idx, g.val(), g.p.GlobalWords-1)
		a := g.f.NewReg()
		g.cur.Add(a, g.base(), idx)
		return a, 0
	}
	return g.base(), g.rng.Int63n(g.p.GlobalWords)
}

func (g *gen) seq(depth, n int) {
	for j := 0; j < n; j++ {
		g.stmt(depth)
	}
}

// stmt emits one weighted-random statement. Statement shapes that open
// control structure are disabled at depth 0 and once the function's block
// budget is spent.
func (g *gen) stmt(depth int) {
	if len(g.f.Blocks) > maxBlocksPerFunc {
		depth = 0
	}
	type choice struct {
		w    int
		emit func()
	}
	choices := []choice{
		{4, g.arith},
		{1, g.float},
		{2, g.load},
		{1 + g.p.StoreDensity/2, g.store},
		{g.p.StoreDensity, g.rmw},
		{1, g.storeLoad},
	}
	if g.frame != ir.NoReg {
		choices = append(choices, choice{2, g.frameOp})
	}
	if len(g.callees) > 0 {
		choices = append(choices, choice{g.p.CallDensity, g.call})
	}
	if g.p.Externs {
		choices = append(choices, choice{1, g.emitExtern})
	}
	if depth > 0 {
		choices = append(choices,
			choice{2, func() { g.ifElse(depth) }},
			choice{1, func() { g.switchStmt(depth) }},
			choice{1 + g.p.LoopDensity/2, func() { g.loop(depth) }},
			choice{(g.p.LoopDensity + 1) / 2, g.sumLoop},
		)
	}
	total := 0
	for _, c := range choices {
		total += c.w
	}
	r := g.rng.Intn(total)
	for _, c := range choices {
		if r < c.w {
			c.emit()
			return
		}
		r -= c.w
	}
}

func (g *gen) arith() {
	ops := []ir.Opcode{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpXor, ir.OpAnd, ir.OpOr,
		ir.OpDiv, ir.OpRem, ir.OpShl, ir.OpShr, ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe}
	if g.rng.Intn(6) == 0 {
		uops := []ir.Opcode{ir.OpNeg, ir.OpNot}
		g.cur.Un(uops[g.rng.Intn(len(uops))], g.dst(), g.val())
		return
	}
	g.cur.Bin(ops[g.rng.Intn(len(ops))], g.dst(), g.val(), g.val())
}

func (g *gen) float() {
	switch g.rng.Intn(4) {
	case 0:
		g.cur.Un(ir.OpIToF, g.dst(), g.val())
	case 1:
		g.cur.Un(ir.OpFToI, g.dst(), g.val())
	default:
		ops := []ir.Opcode{ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv}
		g.cur.Bin(ops[g.rng.Intn(len(ops))], g.dst(), g.val(), g.val())
	}
}

func (g *gen) load() {
	a, off := g.addr()
	g.cur.Load(g.dst(), a, off)
}

func (g *gen) store() {
	a, off := g.addr()
	g.cur.Store(a, off, g.val())
}

// rmw is the WAR generator: load, modify, store back to the same address.
func (g *gen) rmw() {
	a, off := g.addr()
	tv := g.f.NewReg()
	g.cur.Load(tv, a, off)
	g.cur.AddI(tv, tv, 1)
	g.cur.Store(a, off, tv)
}

// storeLoad stores then reloads the same address — a locally guarded load
// that must NOT count as exposed.
func (g *gen) storeLoad() {
	a, off := g.addr()
	g.cur.Store(a, off, g.val())
	g.cur.Load(g.dst(), a, off)
}

// frameOp loads, stores, or read-modify-writes a stack-frame slot
// (KindFrame locations for the alias analysis).
func (g *gen) frameOp() {
	off := g.rng.Int63n(g.p.FrameSlots)
	switch g.rng.Intn(3) {
	case 0:
		g.cur.Load(g.dst(), g.frame, off)
	case 1:
		g.cur.Store(g.frame, off, g.val())
	default:
		tv := g.f.NewReg()
		g.cur.Load(tv, g.frame, off)
		g.cur.ImmOp(ir.OpMulI, tv, tv, 3)
		g.cur.Store(g.frame, off, tv)
	}
}

func (g *gen) call() {
	callee := g.callees[g.rng.Intn(len(g.callees))]
	args := make([]ir.Reg, callee.NumParams)
	for i := range args {
		args[i] = g.val()
	}
	g.cur.Call(g.dst(), callee, args...)
}

func (g *gen) emitExtern() {
	if g.rng.Intn(2) == 0 {
		g.cur.CallExtern(g.dst(), "emit", g.val())
	} else {
		g.cur.CallExtern(g.dst(), "mix", g.val(), g.val())
	}
}

func (g *gen) ifElse(depth int) {
	cond := g.f.NewReg()
	g.cur.AndI(cond, g.val(), 1)
	then := g.f.NewBlock("t")
	els := g.f.NewBlock("e")
	join := g.f.NewBlock("j")
	g.cur.Br(cond, then, els)
	g.cur = then
	g.seq(depth-1, 1+g.rng.Intn(3))
	g.cur.Jmp(join)
	g.cur = els
	g.seq(depth-1, 1+g.rng.Intn(3))
	g.cur.Jmp(join)
	g.cur = join
}

func (g *gen) switchStmt(depth int) {
	idx := g.f.NewReg()
	g.cur.AndI(idx, g.val(), 3)
	join := g.f.NewBlock("sj")
	arms := make([]*ir.Block, 3)
	for i := range arms {
		arms[i] = g.f.NewBlock(fmt.Sprintf("s%d", i))
	}
	g.cur.Switch(idx, arms...)
	for _, arm := range arms {
		g.cur = arm
		g.seq(depth-1, 1+g.rng.Intn(2))
		g.cur.Jmp(join)
	}
	g.cur = join
}

// loop emits a counted loop with a fresh read-only induction register;
// with probability scaled by BreakDensity the body also takes a
// data-dependent early exit, producing a multi-exit loop.
func (g *gen) loop(depth int) {
	trip := int64(1 + g.rng.Intn(4))
	i := g.f.NewReg()
	g.cur.Const(i, 0)
	head := g.f.NewBlock("h")
	body := g.f.NewBlock("b")
	exit := g.f.NewBlock("x")
	g.cur.Jmp(head)
	bound, cond := g.f.NewReg(), g.f.NewReg()
	head.Const(bound, trip)
	head.Bin(ir.OpLt, cond, i, bound)
	head.Br(cond, body, exit)
	g.cur = body
	g.ro = append(g.ro, i)
	g.seq(depth-1, 1+g.rng.Intn(3))
	if g.rng.Intn(8) < g.p.BreakDensity {
		bc := g.f.NewReg()
		g.cur.AndI(bc, g.val(), 1)
		cont := g.f.NewBlock("c")
		g.cur.Br(bc, exit, cont) // early exit: the loop becomes multi-exit
		g.cur = cont
		g.seq(depth-1, 1)
	}
	g.ro = g.ro[:len(g.ro)-1]
	g.cur.AddI(i, i, 1)
	g.cur.Jmp(head)
	g.cur = exit
}

// sumLoop emits the loop-summary stress pattern: a loop whose body only
// loads (exposing the scanned range), followed by a store into that same
// range after the exit. When an enclosing region covers both, the store is
// a WAR against the loop's exposed loads and must enter CP — which the
// analysis can only see through the loop meta-summary's exposed-address
// union (EA_l). Dropping that union misclassifies the region as
// idempotent and the phantom-fault oracle catches the divergence.
func (g *gen) sumLoop() {
	trip := int64(2 + g.rng.Intn(3))
	base := g.base()
	acc := g.dst()
	i := g.f.NewReg()
	g.cur.Const(i, 0)
	head := g.f.NewBlock("sh")
	body := g.f.NewBlock("sb")
	exit := g.f.NewBlock("sx")
	g.cur.Jmp(head)
	bound, cond := g.f.NewReg(), g.f.NewReg()
	head.Const(bound, trip)
	head.Bin(ir.OpLt, cond, i, bound)
	head.Br(cond, body, exit)
	tv := g.f.NewReg()
	a := g.f.NewReg()
	body.Add(a, base, i)
	body.Load(tv, a, 0)
	body.Add(acc, acc, tv)
	body.AddI(i, i, 1)
	body.Jmp(head)
	g.cur = exit
	g.cur.Store(base, g.rng.Int63n(trip), acc)
}
