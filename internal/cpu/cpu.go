// Package cpu implements the single-issue in-order core: an interpreter
// over isa code with per-instruction latency accounting. All memory
// behaviour — caches, persist buffers, NVM, persistence stalls — is behind
// the MemSystem interface that each architecture scheme implements.
//
// Energy is not returned by StepFast: schemes and the engine attribute energy
// to the shared ledger directly, and the engine draws the ledger delta from
// the capacitor after each step (see internal/sim).
package cpu

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/isa"
)

// Regs is the architectural register file.
type Regs [isa.NumRegs]int64

// Cost is the time cost of an operation in nanoseconds.
type Cost struct {
	Ns int64
}

// Add accumulates another cost.
func (c *Cost) Add(o Cost) { c.Ns += o.Ns }

// MemSystem is the per-scheme memory hierarchy. now is the current
// simulation time; implementations use it to resolve persistence stalls
// and background completions.
type MemSystem interface {
	// Fetch charges the instruction-fetch cost beyond the 1-cycle base
	// (only the cache-free NVP pays NVM latency here).
	Fetch(now int64) Cost
	// Load reads a word (or a zero-extended byte) from addr.
	Load(now int64, addr int64, byteWide bool) (int64, Cost)
	// Store writes a word (or the low byte of val) to addr.
	Store(now int64, addr int64, val int64, byteWide bool) Cost
	// RegionEnd runs the SweepCache region-boundary protocol; other
	// schemes never see it.
	RegionEnd(now int64) Cost
	// Clwb writes back the line containing addr (ReplayCache).
	Clwb(now int64, addr int64) Cost
	// Fence drains outstanding writebacks (ReplayCache).
	Fence(now int64) Cost
}

// Counts tallies dynamically executed instructions by class.
type Counts struct {
	Executed   uint64
	Loads      uint64
	Stores     uint64 // plain stores only
	CkptStores uint64
	SavePCs    uint64
	RegionEnds uint64
	Clwbs      uint64
	Fences     uint64
	Calls      uint64
	Branches   uint64
}

// CPU is the architectural core state.
type CPU struct {
	Regs   Regs
	PC     int64
	Code   []isa.Instr
	Halted bool
	Counts Counts

	// dec is the predecoded dispatch table, position-matched to Code.
	dec []isa.Decoded
	// fetchFree elides the per-instruction ms.Fetch call for memory
	// systems that declare it cost- and effect-free (see FreeFetcher).
	fetchFree bool
}

// FreeFetcher is an optional MemSystem capability: implementations whose
// Fetch never charges time or energy and has no side effects return true,
// and the interpreter drops the call from the per-instruction path. The
// cache-free NVP pays NVM latency on every fetch and must return false.
type FreeFetcher interface {
	FetchIsFree() bool
}

// SetFetchFree configures fetch elision; callers must only enable it for
// a memory system whose Fetch is a no-op.
func (c *CPU) SetFetchFree(free bool) { c.fetchFree = free }

// New returns a core ready to run code from entryPC, predecoding the
// dispatch table itself.
func New(code []isa.Instr, entryPC int64) *CPU {
	return NewPredecoded(code, isa.Predecode(code), entryPC)
}

// NewPredecoded returns a core over an already-predecoded program (the
// linker decodes once; the compile cache shares the table across runs).
// dec must be position-matched to code.
func NewPredecoded(code []isa.Instr, dec []isa.Decoded, entryPC int64) *CPU {
	if len(dec) != len(code) {
		panic(fmt.Sprintf("cpu: decode table length %d != code length %d", len(dec), len(code)))
	}
	return &CPU{Code: code, dec: dec, PC: entryPC}
}

// NewLinked returns a core for a linked program, reusing its link-time
// decode table.
func NewLinked(l *ir.Linked) *CPU {
	return NewPredecoded(l.Code, l.Dec, int64(l.EntryPC))
}

// StepTiming carries the per-op latencies the core itself owns.
type StepTiming struct {
	CycleNs   int64
	MulCycles int64
	DivCycles int64
}

// StepFast executes the instruction at PC against ms and returns its time
// cost in nanoseconds plus its dispatch class, through the predecoded
// table: one dense switch, no opcode range tests, and the class flows
// back to the engine so it never re-reads the instruction word. It panics
// on malformed code (the linker guarantees well-formed programs).
func (c *CPU) StepFast(now int64, ms MemSystem, t StepTiming) (int64, isa.Class) {
	if c.Halted {
		return 0, isa.ClassHalt
	}
	d := &c.dec[c.PC]
	ns := t.CycleNs
	if !c.fetchFree {
		ns += ms.Fetch(now).Ns
	}
	next := c.PC + 1
	c.Counts.Executed++

	switch d.Class {
	case isa.ClassNop:

	case isa.ClassAdd:
		c.Regs[d.Dst] = c.Regs[d.Src1] + c.Regs[d.Src2]
	case isa.ClassSub:
		c.Regs[d.Dst] = c.Regs[d.Src1] - c.Regs[d.Src2]
	case isa.ClassAnd:
		c.Regs[d.Dst] = c.Regs[d.Src1] & c.Regs[d.Src2]
	case isa.ClassOr:
		c.Regs[d.Dst] = c.Regs[d.Src1] | c.Regs[d.Src2]
	case isa.ClassXor:
		c.Regs[d.Dst] = c.Regs[d.Src1] ^ c.Regs[d.Src2]
	case isa.ClassAddI:
		c.Regs[d.Dst] = c.Regs[d.Src1] + d.Imm
	case isa.ClassAndI:
		c.Regs[d.Dst] = c.Regs[d.Src1] & d.Imm
	case isa.ClassOrI:
		c.Regs[d.Dst] = c.Regs[d.Src1] | d.Imm
	case isa.ClassXorI:
		c.Regs[d.Dst] = c.Regs[d.Src1] ^ d.Imm
	case isa.ClassALURR:
		c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
	case isa.ClassALURRMul:
		c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
		ns += (t.MulCycles - 1) * t.CycleNs
	case isa.ClassALURRDiv:
		c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
		ns += (t.DivCycles - 1) * t.CycleNs
	case isa.ClassALURI:
		c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], d.Imm)
	case isa.ClassALURIMul:
		c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], d.Imm)
		ns += (t.MulCycles - 1) * t.CycleNs
	case isa.ClassMovI:
		c.Regs[d.Dst] = d.Imm
	case isa.ClassMov:
		c.Regs[d.Dst] = c.Regs[d.Src1]

	case isa.ClassLd:
		c.Counts.Loads++
		v, mc := ms.Load(now+ns, c.Regs[d.Src1]+d.Imm, false)
		c.Regs[d.Dst] = v
		ns += mc.Ns
	case isa.ClassLdB:
		c.Counts.Loads++
		v, mc := ms.Load(now+ns, c.Regs[d.Src1]+d.Imm, true)
		c.Regs[d.Dst] = v
		ns += mc.Ns
	case isa.ClassSt:
		c.Counts.Stores++
		ns += ms.Store(now+ns, c.Regs[d.Src1]+d.Imm, c.Regs[d.Src2], false).Ns
	case isa.ClassStB:
		c.Counts.Stores++
		ns += ms.Store(now+ns, c.Regs[d.Src1]+d.Imm, c.Regs[d.Src2], true).Ns

	case isa.ClassBeq:
		c.Counts.Branches++
		if c.Regs[d.Src1] == c.Regs[d.Src2] {
			next = int64(d.Target)
		}
	case isa.ClassBne:
		c.Counts.Branches++
		if c.Regs[d.Src1] != c.Regs[d.Src2] {
			next = int64(d.Target)
		}
	case isa.ClassBranch:
		c.Counts.Branches++
		if isa.BranchTaken(d.Op, c.Regs[d.Src1], c.Regs[d.Src2]) {
			next = int64(d.Target)
		}
	case isa.ClassJmp:
		next = int64(d.Target)
	case isa.ClassCall:
		c.Counts.Calls++
		c.Regs[isa.LR] = c.PC + 1
		next = int64(d.Target)
	case isa.ClassRet:
		next = c.Regs[isa.LR]
	case isa.ClassHalt:
		c.Halted = true
		next = c.PC

	case isa.ClassCkptSt:
		c.Counts.CkptStores++
		ns += ms.Store(now+ns, ir.CkptSlotAddr(d.Src2), c.Regs[d.Src2], false).Ns
	case isa.ClassSavePC:
		c.Counts.SavePCs++
		ns += ms.Store(now+ns, ir.PCSlotAddr, d.Imm, false).Ns
	case isa.ClassRegionEnd:
		c.Counts.RegionEnds++
		ns += ms.RegionEnd(now + ns).Ns
	case isa.ClassClwb:
		c.Counts.Clwbs++
		ns += ms.Clwb(now+ns, c.Regs[d.Src1]+d.Imm).Ns
	case isa.ClassFence:
		c.Counts.Fences++
		ns += ms.Fence(now + ns).Ns

	default:
		panic(fmt.Sprintf("cpu: unknown class %d at pc %d", d.Class, c.PC))
	}

	c.PC = next
	return ns, d.Class
}

// ClassAt returns the dispatch class of the instruction at pc.
func (c *CPU) ClassAt(pc int64) isa.Class { return c.dec[pc].Class }

// RunUntraced is the engine's fused outage-free inner loop: it retires
// instructions back-to-back — keeping PC and the executed counter in
// locals instead of reloading them through c on every StepFast call — until
// the program halts, the instruction budget max would be exceeded, or a
// region-delimiting instruction (region end / fence) retires, which the
// caller observes for region-size bookkeeping. It returns the elapsed
// time, the number of instructions retired, and whether the stop was a
// region delimiter.
//
// After each instruction it adds the engine's per-instruction ledger
// charge to *compute: eByNs[ns] when ns indexes the table, otherwise
// eInstr + pRun*float64(ns)*1e-9 — the exact expression of the per-step
// engine loop, so ledger totals are bit-identical. compute aliases a live
// ledger field that the memory system also accumulates into during
// Load/Store, so it is read and written through the pointer on every
// instruction, never cached in a local.
//
// The dispatch switch below must stay in step with StepFast; the
// traced-versus-untraced matrix test in internal/sim pins the
// equivalence.
func (c *CPU) RunUntraced(now int64, ms MemSystem, t StepTiming, eByNs []float64, eInstr, pRun float64, compute *float64, max uint64) (elapsed int64, instrs int, delim bool) {
	if c.Halted {
		return 0, 0, false
	}
	pc := c.PC
	executed := c.Counts.Executed
	// dec and fetchFree live in locals so the memory-system calls — which
	// could alias c for all the compiler knows — don't force per-iteration
	// reloads. comp shadows *compute in a register: the ledger field is
	// synced around every ms call (the only other writer/reader) and on
	// exit, so the sequence of float adds it receives is unchanged — only
	// where the running value is stored between adds differs.
	dec := c.dec
	fetchFree := c.fetchFree
	comp := *compute
	// now is the only clock accumulator (elapsed = now-start) and the
	// retire count is derived from the executed delta on exit.
	start := now
	startExec := executed
	for executed < max {
		d := &dec[pc]
		ns := t.CycleNs
		if !fetchFree {
			*compute = comp
			ns += ms.Fetch(now).Ns
			comp = *compute
		}
		next := pc + 1
		executed++

		switch d.Class {
		case isa.ClassNop:

		case isa.ClassAdd:
			c.Regs[d.Dst] = c.Regs[d.Src1] + c.Regs[d.Src2]
		case isa.ClassSub:
			c.Regs[d.Dst] = c.Regs[d.Src1] - c.Regs[d.Src2]
		case isa.ClassAnd:
			c.Regs[d.Dst] = c.Regs[d.Src1] & c.Regs[d.Src2]
		case isa.ClassOr:
			c.Regs[d.Dst] = c.Regs[d.Src1] | c.Regs[d.Src2]
		case isa.ClassXor:
			c.Regs[d.Dst] = c.Regs[d.Src1] ^ c.Regs[d.Src2]
		case isa.ClassAddI:
			c.Regs[d.Dst] = c.Regs[d.Src1] + d.Imm
		case isa.ClassAndI:
			c.Regs[d.Dst] = c.Regs[d.Src1] & d.Imm
		case isa.ClassOrI:
			c.Regs[d.Dst] = c.Regs[d.Src1] | d.Imm
		case isa.ClassXorI:
			c.Regs[d.Dst] = c.Regs[d.Src1] ^ d.Imm
		case isa.ClassALURR:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
		case isa.ClassALURRMul:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
			ns += (t.MulCycles - 1) * t.CycleNs
		case isa.ClassALURRDiv:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
			ns += (t.DivCycles - 1) * t.CycleNs
		case isa.ClassALURI:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], d.Imm)
		case isa.ClassALURIMul:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], d.Imm)
			ns += (t.MulCycles - 1) * t.CycleNs
		case isa.ClassMovI:
			c.Regs[d.Dst] = d.Imm
		case isa.ClassMov:
			c.Regs[d.Dst] = c.Regs[d.Src1]

		case isa.ClassLd:
			c.Counts.Loads++
			*compute = comp
			v, mc := ms.Load(now+ns, c.Regs[d.Src1]+d.Imm, false)
			comp = *compute
			c.Regs[d.Dst] = v
			ns += mc.Ns
		case isa.ClassLdB:
			c.Counts.Loads++
			*compute = comp
			v, mc := ms.Load(now+ns, c.Regs[d.Src1]+d.Imm, true)
			comp = *compute
			c.Regs[d.Dst] = v
			ns += mc.Ns
		case isa.ClassSt:
			c.Counts.Stores++
			*compute = comp
			mc := ms.Store(now+ns, c.Regs[d.Src1]+d.Imm, c.Regs[d.Src2], false)
			comp = *compute
			ns += mc.Ns
		case isa.ClassStB:
			c.Counts.Stores++
			*compute = comp
			mc := ms.Store(now+ns, c.Regs[d.Src1]+d.Imm, c.Regs[d.Src2], true)
			comp = *compute
			ns += mc.Ns

		case isa.ClassBeq:
			c.Counts.Branches++
			if c.Regs[d.Src1] == c.Regs[d.Src2] {
				next = int64(d.Target)
			}
		case isa.ClassBne:
			c.Counts.Branches++
			if c.Regs[d.Src1] != c.Regs[d.Src2] {
				next = int64(d.Target)
			}
		case isa.ClassBranch:
			c.Counts.Branches++
			if isa.BranchTaken(d.Op, c.Regs[d.Src1], c.Regs[d.Src2]) {
				next = int64(d.Target)
			}
		case isa.ClassJmp:
			next = int64(d.Target)
		case isa.ClassCall:
			c.Counts.Calls++
			c.Regs[isa.LR] = pc + 1
			next = int64(d.Target)
		case isa.ClassRet:
			next = c.Regs[isa.LR]
		case isa.ClassHalt:
			c.Halted = true
			next = pc

		case isa.ClassCkptSt:
			c.Counts.CkptStores++
			*compute = comp
			mc := ms.Store(now+ns, ir.CkptSlotAddr(d.Src2), c.Regs[d.Src2], false)
			comp = *compute
			ns += mc.Ns
		case isa.ClassSavePC:
			c.Counts.SavePCs++
			*compute = comp
			mc := ms.Store(now+ns, ir.PCSlotAddr, d.Imm, false)
			comp = *compute
			ns += mc.Ns
		case isa.ClassRegionEnd:
			c.Counts.RegionEnds++
			*compute = comp
			mc := ms.RegionEnd(now + ns)
			comp = *compute
			ns += mc.Ns
		case isa.ClassClwb:
			c.Counts.Clwbs++
			*compute = comp
			mc := ms.Clwb(now+ns, c.Regs[d.Src1]+d.Imm)
			comp = *compute
			ns += mc.Ns
		case isa.ClassFence:
			c.Counts.Fences++
			*compute = comp
			mc := ms.Fence(now + ns)
			comp = *compute
			ns += mc.Ns

		default:
			panic(fmt.Sprintf("cpu: unknown class %d at pc %d", d.Class, pc))
		}

		pc = next
		if ns < int64(len(eByNs)) {
			comp += eByNs[ns]
		} else {
			comp += eInstr + pRun*float64(ns)*1e-9
		}
		now += ns
		if f := isa.ClassFlags[d.Class] & (isa.FlagDelim | isa.FlagHalt); f != 0 {
			delim = f&isa.FlagDelim != 0
			break
		}
	}
	c.PC = pc
	c.Counts.Executed = executed
	*compute = comp
	return now - start, int(executed - startExec), delim
}

// EpochControl parameterizes RunEpoch, the fused harvested-power inner
// loop. The run-constant fields are set once per simulation; LedStart,
// Budget, SegRem and RegionInstrs are refreshed per epoch by the engine.
// NeedsBackup stays a closure and is consulted only after instructions
// that enter the memory system (scheme state cannot change elsewhere);
// the ledger is passed directly so the budget comparison's exact fold
// (Led.Total()) inlines, and even that is evaluated only when the
// Compute watermark says the comparison could go true.
type EpochControl struct {
	// Per-instruction ledger charge, exactly as in RunUntraced: EByNs[ns]
	// when ns indexes the table, else EInstr + PRun*ns*1e-9.
	EByNs  []float64
	EInstr float64
	PRun   float64
	Max    uint64 // global instruction budget

	Jit         bool
	NeedsBackup func() bool    // structural backup request (JIT schemes)
	Led         *energy.Ledger // the live ledger (Compute is the engine-charged field)
	LedStart    float64        // ledger total at epoch start
	Budget      float64        // epoch energy budget (joules)
	SegRem      int64          // remaining ns in the power-trace segment
	MaxInstrNs  int64          // bound on a single instruction's latency

	RegionInstrs int       // running region length carried across epochs
	OnRegionEnd  func(int) // region-size histogram sink
}

// RunEpoch retires one epoch's instructions back-to-back, with PC and the
// executed counter in locals. It stops on a structural backup request, at
// the instruction budget, on halt, on an instruction at the
// single-instruction latency bound, when the next instruction might not
// fit in the power-trace segment, or when the ledger delta reaches the
// epoch budget. It returns the elapsed time and the updated running
// region length.
//
// The budget comparison Total()-LedStart >= Budget is evaluated with that
// exact expression whenever it can matter. On pure-compute stretches it is
// skipped while Compute stays below a watermark cSafe, which cannot change
// the outcome: Total() is monotone non-decreasing in Compute with the
// other ledger fields held fixed (IEEE round-to-nearest addition is
// monotone in each operand, and the fold composes monotone steps), and the
// other fields change only when an instruction enters the memory system.
// The watermark is re-armed at half the remaining slack, which dwarfs the
// rounding drift between the incremental Compute adds and a fresh fold
// (~1e-15 relative), so the budget cannot be crossed below it. The caller
// must not invoke RunEpoch on a halted core or with a pending backup
// request.
//
// The dispatch switch must stay in step with StepFast; the
// traced-versus-untraced matrix test in internal/sim pins the equivalence.
func (c *CPU) RunEpoch(now int64, ms MemSystem, t StepTiming, ec *EpochControl) (elapsed int64, ri int) {
	pc := c.PC
	executed := c.Counts.Executed
	ri = ec.RegionInstrs
	led := ec.Led
	compute := &led.Compute
	// Hoist the control fields into locals: the closure and ms calls below
	// could alias ec (or c) for all the compiler knows, so field accesses
	// inside the loop would otherwise reload on every instruction. comp
	// shadows *compute in a register, synced around every ms call (the
	// only other writer) and before every Total() fold (the only other
	// reader), so the float-add sequence it receives is unchanged.
	eByNs, eInstr, pRun := ec.EByNs, ec.EInstr, ec.PRun
	max, jit := ec.Max, ec.Jit
	ledStart, budget := ec.LedStart, ec.Budget
	segRem, maxInstrNs := ec.SegRem, ec.MaxInstrNs
	dec := c.dec
	fetchFree := c.fetchFree
	comp := *compute
	cSafe := comp // force an exact budget check on the first instruction
	// now is the only clock accumulator: the epoch clock is now-start,
	// and the segment check epochNs+maxInstrNs >= segRem becomes a single
	// compare against an absolute deadline.
	start := now
	segDeadline := now + segRem - maxInstrNs
	for executed < max {
		d := &dec[pc]
		ns := t.CycleNs
		if !fetchFree {
			*compute = comp
			ns += ms.Fetch(now).Ns
			comp = *compute
		}
		next := pc + 1
		executed++

		switch d.Class {
		case isa.ClassNop:

		case isa.ClassAdd:
			c.Regs[d.Dst] = c.Regs[d.Src1] + c.Regs[d.Src2]
		case isa.ClassSub:
			c.Regs[d.Dst] = c.Regs[d.Src1] - c.Regs[d.Src2]
		case isa.ClassAnd:
			c.Regs[d.Dst] = c.Regs[d.Src1] & c.Regs[d.Src2]
		case isa.ClassOr:
			c.Regs[d.Dst] = c.Regs[d.Src1] | c.Regs[d.Src2]
		case isa.ClassXor:
			c.Regs[d.Dst] = c.Regs[d.Src1] ^ c.Regs[d.Src2]
		case isa.ClassAddI:
			c.Regs[d.Dst] = c.Regs[d.Src1] + d.Imm
		case isa.ClassAndI:
			c.Regs[d.Dst] = c.Regs[d.Src1] & d.Imm
		case isa.ClassOrI:
			c.Regs[d.Dst] = c.Regs[d.Src1] | d.Imm
		case isa.ClassXorI:
			c.Regs[d.Dst] = c.Regs[d.Src1] ^ d.Imm
		case isa.ClassALURR:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
		case isa.ClassALURRMul:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
			ns += (t.MulCycles - 1) * t.CycleNs
		case isa.ClassALURRDiv:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
			ns += (t.DivCycles - 1) * t.CycleNs
		case isa.ClassALURI:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], d.Imm)
		case isa.ClassALURIMul:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], d.Imm)
			ns += (t.MulCycles - 1) * t.CycleNs
		case isa.ClassMovI:
			c.Regs[d.Dst] = d.Imm
		case isa.ClassMov:
			c.Regs[d.Dst] = c.Regs[d.Src1]

		case isa.ClassLd:
			c.Counts.Loads++
			*compute = comp
			v, mc := ms.Load(now+ns, c.Regs[d.Src1]+d.Imm, false)
			comp = *compute
			c.Regs[d.Dst] = v
			ns += mc.Ns
		case isa.ClassLdB:
			c.Counts.Loads++
			*compute = comp
			v, mc := ms.Load(now+ns, c.Regs[d.Src1]+d.Imm, true)
			comp = *compute
			c.Regs[d.Dst] = v
			ns += mc.Ns
		case isa.ClassSt:
			c.Counts.Stores++
			*compute = comp
			mc := ms.Store(now+ns, c.Regs[d.Src1]+d.Imm, c.Regs[d.Src2], false)
			comp = *compute
			ns += mc.Ns
		case isa.ClassStB:
			c.Counts.Stores++
			*compute = comp
			mc := ms.Store(now+ns, c.Regs[d.Src1]+d.Imm, c.Regs[d.Src2], true)
			comp = *compute
			ns += mc.Ns

		case isa.ClassBeq:
			c.Counts.Branches++
			if c.Regs[d.Src1] == c.Regs[d.Src2] {
				next = int64(d.Target)
			}
		case isa.ClassBne:
			c.Counts.Branches++
			if c.Regs[d.Src1] != c.Regs[d.Src2] {
				next = int64(d.Target)
			}
		case isa.ClassBranch:
			c.Counts.Branches++
			if isa.BranchTaken(d.Op, c.Regs[d.Src1], c.Regs[d.Src2]) {
				next = int64(d.Target)
			}
		case isa.ClassJmp:
			next = int64(d.Target)
		case isa.ClassCall:
			c.Counts.Calls++
			c.Regs[isa.LR] = pc + 1
			next = int64(d.Target)
		case isa.ClassRet:
			next = c.Regs[isa.LR]
		case isa.ClassHalt:
			c.Halted = true
			next = pc

		case isa.ClassCkptSt:
			c.Counts.CkptStores++
			*compute = comp
			mc := ms.Store(now+ns, ir.CkptSlotAddr(d.Src2), c.Regs[d.Src2], false)
			comp = *compute
			ns += mc.Ns
		case isa.ClassSavePC:
			c.Counts.SavePCs++
			*compute = comp
			mc := ms.Store(now+ns, ir.PCSlotAddr, d.Imm, false)
			comp = *compute
			ns += mc.Ns
		case isa.ClassRegionEnd:
			c.Counts.RegionEnds++
			*compute = comp
			mc := ms.RegionEnd(now + ns)
			comp = *compute
			ns += mc.Ns
		case isa.ClassClwb:
			c.Counts.Clwbs++
			*compute = comp
			mc := ms.Clwb(now+ns, c.Regs[d.Src1]+d.Imm)
			comp = *compute
			ns += mc.Ns
		case isa.ClassFence:
			c.Counts.Fences++
			*compute = comp
			mc := ms.Fence(now + ns)
			comp = *compute
			ns += mc.Ns

		default:
			panic(fmt.Sprintf("cpu: unknown class %d at pc %d", d.Class, pc))
		}

		pc = next
		if ns < int64(len(eByNs)) {
			comp += eByNs[ns]
		} else {
			comp += eInstr + pRun*float64(ns)*1e-9
		}
		now += ns

		cl := d.Class
		if fetchFree && isa.ClassFlags[cl] == 0 {
			// Pure-compute fast path: not a delimiter, cannot halt,
			// cannot touch the memory system — so scheme state is
			// unchanged and the budget comparison is skippable while
			// Compute stays below the watermark. The latency-bound and
			// segment-deadline compares are the same tests as below.
			ri++
			if ns >= maxInstrNs || now >= segDeadline {
				break
			}
			if comp < cSafe {
				continue
			}
			*compute = comp // the fold reads the live ledger field
			tt := led.Total()
			if tt-ledStart >= budget {
				break
			}
			slack := budget - (tt - ledStart)
			if slack > (tt+1)*1e-9 {
				cSafe = comp + 0.5*slack
			} else {
				cSafe = comp
			}
			continue
		}
		memTouch := !fetchFree || cl.TouchesMemSystem()
		needBk := false
		if jit && memTouch {
			needBk = ec.NeedsBackup()
		}
		if cl == isa.ClassRegionEnd || cl == isa.ClassFence {
			ec.OnRegionEnd(ri)
			ri = 0
		} else {
			ri++
		}
		// cl == ClassHalt iff the core just halted: the core enters the
		// epoch running and only the Halt case sets Halted.
		if cl == isa.ClassHalt || ns >= maxInstrNs ||
			now >= segDeadline {
			break
		}
		if memTouch || comp >= cSafe {
			*compute = comp // the fold reads the live ledger field
			tt := led.Total()
			if tt-ledStart >= budget {
				break
			}
			slack := budget - (tt - ledStart)
			if slack > (tt+1)*1e-9 {
				cSafe = comp + 0.5*slack
			} else {
				cSafe = comp
			}
		}
		if needBk {
			break
		}
	}
	c.PC = pc
	c.Counts.Executed = executed
	*compute = comp
	return now - start, ri
}
