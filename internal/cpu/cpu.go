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
// and background completions. Instruction fetch is not a call: its cost
// is a per-scheme constant (FetchCost) the interpreter charges inline.
type MemSystem interface {
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
}

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

// FetchCost is a scheme's constant per-instruction fetch charge beyond
// the 1-cycle base: Ns is added to every instruction's latency, NVM (joules)
// to the ledger's NVM field before the instruction's memory-system call.
// Cached schemes fetch for free (the zero value); the cache-free NVP pays
// an NVM read on every fetch.
type FetchCost struct {
	Ns  int64
	NVM float64
}

// StepTiming carries the per-op latencies the core itself owns, plus the
// scheme's declared fetch cost.
type StepTiming struct {
	CycleNs   int64
	MulCycles int64
	DivCycles int64
	Fetch     FetchCost
}

// StepFast executes the instruction at PC against ms and returns its time
// cost in nanoseconds plus its dispatch class, through the predecoded
// table: one dense switch, no opcode range tests, and the class flows
// back to the engine so it never re-reads the instruction word. The
// returned time includes t.Fetch.Ns; the fetch energy t.Fetch.NVM is the
// caller's to charge, before the call. It panics on malformed code (the
// linker guarantees well-formed programs).
//
// StepFast is the reference the fused loops are checked against: every
// ALU op and branch they compute inline goes through the generic
// evaluators (EvalALU, BranchTaken) here.
func (c *CPU) StepFast(now int64, ms MemSystem, t StepTiming) (int64, isa.Class) {
	if c.Halted {
		return 0, isa.ClassHalt
	}
	d := &c.dec[c.PC]
	ns := t.CycleNs + t.Fetch.Ns
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
	case isa.ClassShlI, isa.ClassShrI, isa.ClassSarI:
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
	case isa.ClassBlt, isa.ClassBge, isa.ClassBranch:
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
// instructions back-to-back — keeping PC and the remaining instruction
// budget in locals instead of reloading them through c on every StepFast
// call — until the program halts, the instruction budget max would be
// exceeded, or a region-delimiting instruction (region end / fence)
// retires, which the caller observes for region-size bookkeeping. It
// returns the elapsed time, the number of instructions retired, and
// whether the stop was a region delimiter.
//
// Each instruction first adds the fetch energy t.Fetch.NVM to led.NVM,
// then runs, then adds the engine's per-instruction charge to
// led.Compute: eByNs[ns] when ns indexes the table, otherwise
// eInstr + pRun*float64(ns)*1e-9. That is exactly the float-add sequence
// of the per-step reference engine, so ledger totals are bit-identical.
// (For schemes that fetch for free the NVM add is of +0, which leaves the
// non-negative field's bits unchanged.)
//
// The loop is split in two. The inner loop retires the classes whose
// isa.ClassFlags byte is zero — the hot pure-compute ones, computed
// inline — and contains no function call, so the Go compiler keeps its
// state (pc, the budget countdown, now, comp, nvm) in registers instead
// of spilling it before every dispatch (the internal ABI has no
// callee-saved registers). Every other class leaves it for one pass
// through the slow path's switch; each class has a case in exactly one of
// the two. Both must stay in step with StepFast; the fused-loop tests in
// this package and the traced-versus-untraced matrix test in internal/sim
// pin the equivalence.
func (c *CPU) RunUntraced(now int64, ms MemSystem, t StepTiming, eByNs []float64, eInstr, pRun float64, led *energy.Ledger, max uint64) (elapsed int64, instrs int, delim bool) {
	if c.Halted {
		return 0, 0, false
	}
	pc := c.PC
	// left counts down the instructions the budget max still allows, so
	// the loop carries one counter instead of executed and max.
	var left uint64
	if max > c.Counts.Executed {
		left = max - c.Counts.Executed
	}
	startLeft := left
	// dec lives in a local so the memory-system calls — which could alias
	// c for all the compiler knows — don't force per-iteration reloads.
	// comp and nvm shadow led.Compute and led.NVM in registers: both are
	// stored before every ms call (the only other writer/reader) and
	// reloaded after it, and stored on exit, so the sequence of float adds
	// each field receives is unchanged — only where the running value is
	// kept between adds differs.
	dec := c.dec
	baseNs, fetchE := t.CycleNs+t.Fetch.Ns, t.Fetch.NVM
	mulNs, divNs := (t.MulCycles-1)*t.CycleNs, (t.DivCycles-1)*t.CycleNs
	comp, nvm := led.Compute, led.NVM
	// now is the only clock accumulator (elapsed = now-start) and the
	// retire count is derived from the countdown on exit.
	start := now
run:
	for {
		for {
			if left == 0 {
				break run
			}
			d := &dec[pc]
			if isa.ClassFlags[d.Class] != 0 {
				break
			}
			ns := baseNs
			nvm += fetchE
			next := pc + 1
			left--

			switch d.Class {
			// ClassNop has no case: it only retires.
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
			case isa.ClassShlI:
				c.Regs[d.Dst] = c.Regs[d.Src1] << (uint64(d.Imm) & 63)
			case isa.ClassShrI:
				c.Regs[d.Dst] = int64(uint64(c.Regs[d.Src1]) >> (uint64(d.Imm) & 63))
			case isa.ClassSarI:
				c.Regs[d.Dst] = c.Regs[d.Src1] >> (uint64(d.Imm) & 63)
			case isa.ClassALURRMul:
				c.Regs[d.Dst] = c.Regs[d.Src1] * c.Regs[d.Src2]
				ns += mulNs
			case isa.ClassALURIMul:
				c.Regs[d.Dst] = c.Regs[d.Src1] * d.Imm
				ns += mulNs
			case isa.ClassMovI:
				c.Regs[d.Dst] = d.Imm
			case isa.ClassMov:
				c.Regs[d.Dst] = c.Regs[d.Src1]
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
			case isa.ClassBlt:
				c.Counts.Branches++
				if c.Regs[d.Src1] < c.Regs[d.Src2] {
					next = int64(d.Target)
				}
			case isa.ClassBge:
				c.Counts.Branches++
				if c.Regs[d.Src1] >= c.Regs[d.Src2] {
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
			}

			pc = next
			if ns < int64(len(eByNs)) {
				comp += eByNs[ns]
			} else {
				comp += eInstr + pRun*float64(ns)*1e-9
			}
			now += ns
		}

		// Slow path: one instruction of a flagged class. d is a copy, so
		// the inner loop's pointer into dec is not live across the calls
		// below and needs no spill slot.
		d := dec[pc]
		ns := baseNs
		nvm += fetchE
		next := pc + 1
		left--

		switch d.Class {
		case isa.ClassALURR, isa.ClassALURRDiv:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
			if d.Class == isa.ClassALURRDiv {
				ns += divNs
			}
		case isa.ClassBranch:
			c.Counts.Branches++
			if isa.BranchTaken(d.Op, c.Regs[d.Src1], c.Regs[d.Src2]) {
				next = int64(d.Target)
			}
		case isa.ClassHalt:
			c.Halted = true
			next = pc

		case isa.ClassLd, isa.ClassLdB:
			c.Counts.Loads++
			led.Compute, led.NVM = comp, nvm
			v, mc := ms.Load(now+ns, c.Regs[d.Src1]+d.Imm, d.Class == isa.ClassLdB)
			comp, nvm = led.Compute, led.NVM
			c.Regs[d.Dst] = v
			ns += mc.Ns
		case isa.ClassSt, isa.ClassStB:
			c.Counts.Stores++
			led.Compute, led.NVM = comp, nvm
			mc := ms.Store(now+ns, c.Regs[d.Src1]+d.Imm, c.Regs[d.Src2], d.Class == isa.ClassStB)
			comp, nvm = led.Compute, led.NVM
			ns += mc.Ns
		case isa.ClassCkptSt:
			c.Counts.CkptStores++
			led.Compute, led.NVM = comp, nvm
			mc := ms.Store(now+ns, ir.CkptSlotAddr(d.Src2), c.Regs[d.Src2], false)
			comp, nvm = led.Compute, led.NVM
			ns += mc.Ns
		case isa.ClassSavePC:
			c.Counts.SavePCs++
			led.Compute, led.NVM = comp, nvm
			mc := ms.Store(now+ns, ir.PCSlotAddr, d.Imm, false)
			comp, nvm = led.Compute, led.NVM
			ns += mc.Ns
		case isa.ClassRegionEnd:
			c.Counts.RegionEnds++
			led.Compute, led.NVM = comp, nvm
			mc := ms.RegionEnd(now + ns)
			comp, nvm = led.Compute, led.NVM
			ns += mc.Ns
		case isa.ClassClwb:
			c.Counts.Clwbs++
			led.Compute, led.NVM = comp, nvm
			mc := ms.Clwb(now+ns, c.Regs[d.Src1]+d.Imm)
			comp, nvm = led.Compute, led.NVM
			ns += mc.Ns
		case isa.ClassFence:
			c.Counts.Fences++
			led.Compute, led.NVM = comp, nvm
			mc := ms.Fence(now + ns)
			comp, nvm = led.Compute, led.NVM
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
	n := startLeft - left
	c.PC = pc
	c.Counts.Executed += n
	led.Compute, led.NVM = comp, nvm
	return now - start, int(n), delim
}

// EpochControl parameterizes RunEpoch, the fused harvested-power inner
// loop. The run-constant fields are set once per simulation; LedStart,
// Budget, SegRem and RegionInstrs are refreshed per epoch by the engine.
// The ledger is passed directly so the budget comparison's exact fold
// (Led.Total()) inlines, and even that is evaluated only when the
// Compute/NVM watermarks say the comparison could go true.
type EpochControl struct {
	// Per-instruction ledger charge, exactly as in RunUntraced: EByNs[ns]
	// when ns indexes the table, else EInstr + PRun*ns*1e-9.
	EByNs  []float64
	EInstr float64
	PRun   float64
	Max    uint64 // global instruction budget

	// NeedsBackup is the structural backup request of a scheme that can
	// raise one (NvMR's rename table filling up), consulted after every
	// instruction that enters the memory system (scheme state cannot
	// change elsewhere). nil for every other scheme.
	NeedsBackup func() bool
	Led         *energy.Ledger // the live ledger (Compute and NVM are engine-charged)
	LedStart    float64        // ledger total at epoch start
	Budget      float64        // epoch energy budget (joules)
	SegRem      int64          // remaining ns in the power-trace segment
	MaxInstrNs  int64          // bound on a single instruction's latency

	RegionInstrs int       // running region length carried across epochs
	OnRegionEnd  func(int) // region-size histogram sink
}

// watermarks re-arms RunEpoch's budget-check skip after an exact fold
// tt that said "continue": the comparison cannot go true while Compute
// stays below cSafe and NVM below nSafe, each granted a quarter of the
// remaining slack. When the slack is too small to dwarf rounding drift,
// both marks sit at the current values and the next instruction folds.
func watermarks(comp, nvm, tt, ledStart, budget float64) (cSafe, nSafe float64) {
	slack := budget - (tt - ledStart)
	if slack > (tt+1)*1e-9 {
		return comp + 0.25*slack, nvm + 0.25*slack
	}
	return comp, nvm
}

// RunEpoch retires one epoch's instructions back-to-back, with PC and the
// remaining instruction budget in locals. It stops on a structural backup
// request, at the instruction budget, on halt, on an instruction at the
// single-instruction latency bound, when the next instruction might not
// fit in the power-trace segment, or when the ledger delta reaches the
// epoch budget. It returns the elapsed time and the updated running
// region length. Ledger charges are those of RunUntraced: fetch energy to
// NVM before the instruction, the engine charge to Compute after it.
//
// The budget comparison Total()-LedStart >= Budget is evaluated with that
// exact expression whenever it can matter: after every instruction that
// enters the memory system, and on pure-compute stretches whenever
// Compute or NVM reaches its watermark. The skipped comparisons cannot
// have a different outcome. Total() is monotone non-decreasing in each of
// Compute and NVM with the other ledger fields held fixed (IEEE
// round-to-nearest addition is monotone in each operand, and the fold
// composes monotone steps). A pure-compute instruction changes only those
// two fields — the engine charge and the scheme's constant fetch energy —
// because the other fields change only inside memory-system calls. After
// an exact fold leaves slack s, the watermarks sit a quarter of s above
// the current Compute and NVM, so below both marks Total() has grown by
// at most half of s plus rounding drift (~1e-15 relative), which the
// other half dwarfs: the budget cannot be crossed below them. The caller
// must not invoke RunEpoch on a halted core or with a pending backup
// request.
//
// The loop is split as in RunUntraced: a call-free inner loop over the
// unflagged pure-compute classes, which keeps every per-instruction check
// (latency bound, segment deadline, watermarks and the inlined exact
// fold), and a slow path for one instruction of any other class. The
// generic pure-compute classes (isa.FlagGeneric) take the inner loop's
// watermark skip there too, so the folds happen on exactly the
// instructions they did when one loop handled every class.
func (c *CPU) RunEpoch(now int64, ms MemSystem, t StepTiming, ec *EpochControl) (elapsed int64, ri int) {
	pc := c.PC
	led := ec.Led
	// Hoist the control fields into locals: the closure and ms calls below
	// could alias ec (or c) for all the compiler knows, so field accesses
	// inside the loop would otherwise reload on every instruction. comp
	// and nvm shadow led.Compute and led.NVM in registers, stored before
	// every ms call (the only other writer) and before every Total() fold
	// (the only other reader), so the float-add sequence each receives is
	// unchanged.
	eByNs, eInstr, pRun := ec.EByNs, ec.EInstr, ec.PRun
	needsBackup := ec.NeedsBackup
	ledStart, budget := ec.LedStart, ec.Budget
	segRem, maxInstrNs := ec.SegRem, ec.MaxInstrNs
	dec := c.dec
	baseNs, fetchE := t.CycleNs+t.Fetch.Ns, t.Fetch.NVM
	mulNs, divNs := (t.MulCycles-1)*t.CycleNs, (t.DivCycles-1)*t.CycleNs
	comp, nvm := led.Compute, led.NVM
	// Force an exact budget check on the first instruction.
	cSafe, nSafe := comp, nvm
	// now is the only clock accumulator: the epoch clock is now-start,
	// and the segment check epochNs+maxInstrNs >= segRem becomes a single
	// compare against an absolute deadline.
	start := now
	segDeadline := now + segRem - maxInstrNs
	// left counts down the instructions the budget ec.Max still allows,
	// as in RunUntraced. The running region length is regionLeft-left:
	// every retired instruction but a delimiter extends the region, so
	// only the delimiters (slow path) move regionLeft and the inner loop
	// keeps no region counter.
	var left uint64
	if ec.Max > c.Counts.Executed {
		left = ec.Max - c.Counts.Executed
	}
	startLeft := left
	regionLeft := left + uint64(ec.RegionInstrs)
epoch:
	for {
		for {
			if left == 0 {
				break epoch
			}
			d := &dec[pc]
			if isa.ClassFlags[d.Class] != 0 {
				break
			}
			ns := baseNs
			nvm += fetchE
			next := pc + 1
			left--

			switch d.Class {
			// ClassNop has no case: it only retires.
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
			case isa.ClassShlI:
				c.Regs[d.Dst] = c.Regs[d.Src1] << (uint64(d.Imm) & 63)
			case isa.ClassShrI:
				c.Regs[d.Dst] = int64(uint64(c.Regs[d.Src1]) >> (uint64(d.Imm) & 63))
			case isa.ClassSarI:
				c.Regs[d.Dst] = c.Regs[d.Src1] >> (uint64(d.Imm) & 63)
			case isa.ClassALURRMul:
				c.Regs[d.Dst] = c.Regs[d.Src1] * c.Regs[d.Src2]
				ns += mulNs
			case isa.ClassALURIMul:
				c.Regs[d.Dst] = c.Regs[d.Src1] * d.Imm
				ns += mulNs
			case isa.ClassMovI:
				c.Regs[d.Dst] = d.Imm
			case isa.ClassMov:
				c.Regs[d.Dst] = c.Regs[d.Src1]
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
			case isa.ClassBlt:
				c.Counts.Branches++
				if c.Regs[d.Src1] < c.Regs[d.Src2] {
					next = int64(d.Target)
				}
			case isa.ClassBge:
				c.Counts.Branches++
				if c.Regs[d.Src1] >= c.Regs[d.Src2] {
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
			}

			pc = next
			if ns < int64(len(eByNs)) {
				comp += eByNs[ns]
			} else {
				comp += eInstr + pRun*float64(ns)*1e-9
			}
			now += ns
			// Not a delimiter, cannot halt, cannot touch the memory
			// system — so scheme state is unchanged and the budget
			// comparison is skippable while Compute and NVM stay below
			// their watermarks. The latency-bound and segment-deadline
			// compares are the same tests as in the slow path.
			if ns >= maxInstrNs || now >= segDeadline {
				break epoch
			}
			if comp < cSafe && nvm < nSafe {
				continue
			}
			led.Compute, led.NVM = comp, nvm // the fold reads the live fields
			tt := led.Total()
			if tt-ledStart >= budget {
				break epoch
			}
			cSafe, nSafe = watermarks(comp, nvm, tt, ledStart, budget)
		}

		// Slow path: one instruction of a flagged class. d is a copy, so
		// the inner loop's pointer into dec is not live across the calls
		// below and needs no spill slot.
		d := dec[pc]
		ns := baseNs
		nvm += fetchE
		next := pc + 1
		left--

		switch d.Class {
		case isa.ClassALURR, isa.ClassALURRDiv:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
			if d.Class == isa.ClassALURRDiv {
				ns += divNs
			}
		case isa.ClassBranch:
			c.Counts.Branches++
			if isa.BranchTaken(d.Op, c.Regs[d.Src1], c.Regs[d.Src2]) {
				next = int64(d.Target)
			}
		case isa.ClassHalt:
			c.Halted = true
			next = pc

		case isa.ClassLd, isa.ClassLdB:
			c.Counts.Loads++
			led.Compute, led.NVM = comp, nvm
			v, mc := ms.Load(now+ns, c.Regs[d.Src1]+d.Imm, d.Class == isa.ClassLdB)
			comp, nvm = led.Compute, led.NVM
			c.Regs[d.Dst] = v
			ns += mc.Ns
		case isa.ClassSt, isa.ClassStB:
			c.Counts.Stores++
			led.Compute, led.NVM = comp, nvm
			mc := ms.Store(now+ns, c.Regs[d.Src1]+d.Imm, c.Regs[d.Src2], d.Class == isa.ClassStB)
			comp, nvm = led.Compute, led.NVM
			ns += mc.Ns
		case isa.ClassCkptSt:
			c.Counts.CkptStores++
			led.Compute, led.NVM = comp, nvm
			mc := ms.Store(now+ns, ir.CkptSlotAddr(d.Src2), c.Regs[d.Src2], false)
			comp, nvm = led.Compute, led.NVM
			ns += mc.Ns
		case isa.ClassSavePC:
			c.Counts.SavePCs++
			led.Compute, led.NVM = comp, nvm
			mc := ms.Store(now+ns, ir.PCSlotAddr, d.Imm, false)
			comp, nvm = led.Compute, led.NVM
			ns += mc.Ns
		case isa.ClassRegionEnd:
			c.Counts.RegionEnds++
			led.Compute, led.NVM = comp, nvm
			mc := ms.RegionEnd(now + ns)
			comp, nvm = led.Compute, led.NVM
			ns += mc.Ns
		case isa.ClassClwb:
			c.Counts.Clwbs++
			led.Compute, led.NVM = comp, nvm
			mc := ms.Clwb(now+ns, c.Regs[d.Src1]+d.Imm)
			comp, nvm = led.Compute, led.NVM
			ns += mc.Ns
		case isa.ClassFence:
			c.Counts.Fences++
			led.Compute, led.NVM = comp, nvm
			mc := ms.Fence(now + ns)
			comp, nvm = led.Compute, led.NVM
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

		f := isa.ClassFlags[d.Class]
		if f&isa.FlagDelim != 0 {
			// The region ended before this delimiter.
			ec.OnRegionEnd(int(regionLeft - left - 1))
			regionLeft = left
		}
		// FlagHalt iff the core just halted: the core enters the epoch
		// running and only the Halt case sets Halted.
		if f&isa.FlagHalt != 0 || ns >= maxInstrNs || now >= segDeadline {
			break
		}
		mem := f&isa.FlagMemSystem != 0
		// A generic pure-compute class moved only Compute and NVM, as in
		// the inner loop; every memory class may have moved any ledger
		// field: compare exactly.
		if !mem && comp < cSafe && nvm < nSafe {
			continue
		}
		led.Compute, led.NVM = comp, nvm
		tt := led.Total()
		if tt-ledStart >= budget {
			break
		}
		cSafe, nSafe = watermarks(comp, nvm, tt, ledStart, budget)
		if mem && needsBackup != nil && needsBackup() {
			break
		}
	}
	c.PC = pc
	c.Counts.Executed += startLeft - left
	led.Compute, led.NVM = comp, nvm
	return now - start, int(regionLeft - left)
}
