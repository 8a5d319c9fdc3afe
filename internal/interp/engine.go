package interp

import "fmt"

// Engine selects which dispatch path a machine uses for the quiescent
// (hook-free, fault-free) phases of a run. The two engines are
// observationally equivalent — same return values, counters, checkpoint
// traffic, profiles, and fault trajectories — and differ only in speed;
// the equivalence guard tests and the progen FuzzEngines oracle pin that
// down. The active phase of a fault (injection through detection) always
// runs on the reference loop regardless of the selected engine, and a
// Hook forces the reference loop outright (hooks observe every
// instruction).
type Engine uint8

// Engines.
const (
	// EngineCompiled is the closure-compiled engine (closure.go) — the
	// default. The module is AOT-compiled into threaded-code closures,
	// one per pre-decoded instruction, linked by direct continuation
	// calls with block-batched instruction accounting.
	EngineCompiled Engine = iota
	// EngineRef is the reference loop (ref.go): it walks the ir structures
	// directly and carries the full observation machinery. Equivalent to
	// setting Config.Reference.
	EngineRef
)

// String names the engine the way the -engine command flags spell it.
func (e Engine) String() string {
	switch e {
	case EngineCompiled:
		return "compiled"
	case EngineRef:
		return "ref"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// ParseEngine maps a -engine flag value to an Engine. It is the shared
// validation helper behind every command's -engine flag and the
// encore-serve "engine" field. The empty string selects the default
// compiled engine. "fast" and "closure", the names of the two compiled
// engines this one replaced, are accepted as aliases for "compiled", and
// "reference" for "ref".
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "compiled", "fast", "closure":
		return EngineCompiled, nil
	case "ref", "reference":
		return EngineRef, nil
	}
	return EngineCompiled, fmt.Errorf("unknown engine %q (valid: compiled, ref)", s)
}
