package cpu

// The fused loops (RunUntraced, RunEpoch) against the reference stepper
// (StepFast) over every opcode. The fused loops compute the hot classes
// inline in a call-free inner loop and send the rest through a slow path;
// StepFast resolves every ALU op and branch through the generic
// evaluators. Nothing makes the golden workload matrix execute every
// class or edge case (sltu, bgeu, a remainder by zero, a shift by 64 or
// more), so these programs cover every opcode with edge operands, and the
// fuzz target covers random programs.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/energy"
	"repro/internal/isa"
)

// fusedMem charges fetch-independent energy as NVP and the persist
// schemes do — loads to NVM (nvmLoadMem), stores to Persist — and raises
// a structural backup request on every fifth store, as NvMR's rename
// table does when it fills.
type fusedMem struct {
	nvmLoadMem
	stores  int
	pending bool
}

func newFusedMem(led *energy.Ledger) *fusedMem {
	m := &fusedMem{nvmLoadMem: nvmLoadMem{flatMem: newFlatMem(), led: led, eLoad: 3e-10}}
	m.loadNs, m.storeNs = 40, 30
	return m
}

func (m *fusedMem) Store(now int64, addr int64, val int64, byteWide bool) Cost {
	m.led.Persist += 2e-10
	if m.stores++; m.stores%5 == 0 {
		m.pending = true
	}
	return m.flatMem.Store(now, addr, val, byteWide)
}

// fusedTiming makes a multiply (11 ns) and a divide (29 ns) cost more
// than a single-cycle op (7 ns), and a load or store more still.
var fusedTiming = StepTiming{CycleNs: 2, MulCycles: 3, DivCycles: 12,
	Fetch: FetchCost{Ns: 5, NVM: 1e-10}}

// fusedCharge is the engine's per-instruction charge. The table covers
// latencies below 32 ns, so loads and stores take the formula.
type fusedCharge struct {
	eByNs        []float64
	eInstr, pRun float64
}

func newFusedCharge() fusedCharge {
	ch := fusedCharge{eByNs: make([]float64, 32), eInstr: 1e-11, pRun: 1e-3}
	for ns := range ch.eByNs {
		ch.eByNs[ns] = ch.eInstr + ch.pRun*float64(ns)*1e-9
	}
	return ch
}

func (ch fusedCharge) of(ns int64) float64 {
	if ns < int64(len(ch.eByNs)) {
		return ch.eByNs[ns]
	}
	return ch.eInstr + ch.pRun*float64(ns)*1e-9
}

// stop is one return of a fused loop (or of the reference stepping the
// same rules): where the core stands and what the ledger reads.
type stop struct {
	Executed uint64
	PC       int64
	Elapsed  int64
	Region   int // RunEpoch's running region length; RunUntraced's delimiter flag
	Led      energy.Ledger
}

// fusedRun is everything a run through one engine leaves behind.
type fusedRun struct {
	stops   []stop
	regions []int // region sizes RunEpoch reported
	core    *CPU
	mem     map[int64]int64
}

// runUntracedAll drives code to halt or max through RunUntraced (fused) or
// through StepFast stopping on the same instructions (reference).
func runUntracedAll(code []isa.Instr, max uint64, fused bool) fusedRun {
	var led energy.Ledger
	m := newFusedMem(&led)
	ch := newFusedCharge()
	c := New(code, 0)
	var run fusedRun
	var now int64
	for !c.Halted && c.Counts.Executed < max {
		var elapsed int64
		var delim bool
		if fused {
			elapsed, _, delim = c.RunUntraced(now, m, fusedTiming, ch.eByNs, ch.eInstr, ch.pRun, &led, max)
		} else {
			for c.Counts.Executed < max {
				led.NVM += fusedTiming.Fetch.NVM
				ns, cl := c.StepFast(now+elapsed, m, fusedTiming)
				led.Compute += ch.of(ns)
				elapsed += ns
				if f := isa.ClassFlags[cl] & (isa.FlagDelim | isa.FlagHalt); f != 0 {
					delim = f&isa.FlagDelim != 0
					break
				}
			}
		}
		now += elapsed
		region := 0
		if delim {
			region = 1
		}
		run.stops = append(run.stops, stop{c.Counts.Executed, c.PC, elapsed, region, led})
	}
	run.core, run.mem = c, m.words
	return run
}

// epochParams are the per-epoch limits of a runEpochsAll drive.
type epochParams struct {
	budget     float64
	segRem     int64
	maxInstrNs int64
}

// runEpochsAll drives code to halt or max through successive epochs of
// RunEpoch (fused) or of StepFast with every stop condition checked
// exactly after every instruction (reference). Each epoch starts from
// the ledger the last one left, and a pending backup request is served
// between epochs.
func runEpochsAll(code []isa.Instr, max uint64, ep epochParams, fused bool) fusedRun {
	var led energy.Ledger
	m := newFusedMem(&led)
	ch := newFusedCharge()
	c := New(code, 0)
	var run fusedRun
	ec := &EpochControl{
		EByNs: ch.eByNs, EInstr: ch.eInstr, PRun: ch.pRun, Max: max,
		NeedsBackup: func() bool { return m.pending },
		Led:         &led, MaxInstrNs: ep.maxInstrNs,
		OnRegionEnd: func(n int) { run.regions = append(run.regions, n) },
	}
	var now int64
	ri := 0
	for !c.Halted && c.Counts.Executed < max {
		m.pending = false
		ec.LedStart, ec.Budget, ec.SegRem, ec.RegionInstrs = led.Total(), ep.budget, ep.segRem, ri
		var elapsed int64
		if fused {
			elapsed, ri = c.RunEpoch(now, m, fusedTiming, ec)
		} else {
			for c.Counts.Executed < max {
				led.NVM += fusedTiming.Fetch.NVM
				ns, cl := c.StepFast(now+elapsed, m, fusedTiming)
				led.Compute += ch.of(ns)
				elapsed += ns
				if cl == isa.ClassRegionEnd || cl == isa.ClassFence {
					ec.OnRegionEnd(ri)
					ri = 0
				} else {
					ri++
				}
				if cl == isa.ClassHalt || ns >= ep.maxInstrNs || elapsed >= ep.segRem-ep.maxInstrNs ||
					led.Total()-ec.LedStart >= ep.budget ||
					cl.TouchesMemSystem() && m.pending {
					break
				}
			}
		}
		now += elapsed
		run.stops = append(run.stops, stop{c.Counts.Executed, c.PC, elapsed, ri, led})
	}
	run.core, run.mem = c, m.words
	return run
}

// sameRun reports the first difference between a fused run and the
// reference run of the same program.
func sameRun(t *testing.T, what string, got, want fusedRun) {
	t.Helper()
	n := min(len(got.stops), len(want.stops))
	for i := 0; i < n; i++ {
		if got.stops[i] != want.stops[i] {
			t.Fatalf("%s: stop %d differs:\nfused     %+v\nreference %+v", what, i, got.stops[i], want.stops[i])
		}
	}
	if len(got.stops) != len(want.stops) {
		t.Fatalf("%s: fused loop stopped %d times, reference %d", what, len(got.stops), len(want.stops))
	}
	g, w := got.core, want.core
	if g.Regs != w.Regs || g.PC != w.PC || g.Halted != w.Halted || g.Counts != w.Counts {
		t.Fatalf("%s: final core differs:\nfused     pc=%d halted=%v %+v\n          %v\nreference pc=%d halted=%v %+v\n          %v",
			what, g.PC, g.Halted, g.Counts, g.Regs, w.PC, w.Halted, w.Counts, w.Regs)
	}
	if !slices.Equal(got.regions, want.regions) {
		t.Fatalf("%s: region sizes differ: fused %v, reference %v", what, got.regions, want.regions)
	}
	if len(got.mem) != len(want.mem) {
		t.Fatalf("%s: memory differs: %d words vs %d", what, len(got.mem), len(want.mem))
	}
	for a, v := range want.mem {
		if got.mem[a] != v {
			t.Fatalf("%s: memory word %#x = %d, reference %d", what, a, got.mem[a], v)
		}
	}
}

// edgeValues are the operands every ALU op and branch is applied to.
var edgeValues = []int64{0, 1, -1, 2, 63, 64, -64, math.MinInt64, math.MaxInt64, 0x5555}

// Registers of the edge program: r0..r9 hold edgeValues, r10 takes each
// result, r11..r13 accumulate, r14 is the store base.
const (
	edgeRes, edgeAcc, edgeMix, edgeTaken, edgeBase = 10, 11, 12, 13, 14
)

// edgeProgram applies every register-register ALU op to every pair of
// edgeValues, every register-immediate op to every value with every
// value as the immediate (shift amounts 63, 64, -1 and 0 among them;
// zero divisors for div and rem), and every branch to every pair. Each
// result is folded into accumulators and stored, so any wrong result
// shows in the final registers and memory. Around them sit the remaining
// opcodes: byte and word loads and stores, checkpoint stores, PC saves,
// region ends, clwb, fence, call/ret, jmp, mov and nop.
func edgeProgram() []isa.Instr {
	var code []isa.Instr
	emit := func(in isa.Instr) int { code = append(code, in); return len(code) - 1 }
	for i, v := range edgeValues {
		emit(isa.Instr{Op: isa.OpMovI, Dst: isa.Reg(i), Imm: v})
	}
	emit(isa.Instr{Op: isa.OpMovI, Dst: edgeBase, Imm: 0x1000})
	// fold mixes r10 into the accumulators, stores it, and every 16th
	// result reads it back and closes a region.
	nres := 0
	fold := func() {
		emit(isa.Instr{Op: isa.OpXor, Dst: edgeAcc, Src1: edgeAcc, Src2: edgeRes})
		emit(isa.Instr{Op: isa.OpMulI, Dst: edgeMix, Src1: edgeMix, Imm: 31})
		emit(isa.Instr{Op: isa.OpAdd, Dst: edgeMix, Src1: edgeMix, Src2: edgeRes})
		emit(isa.Instr{Op: isa.OpSt, Src1: edgeBase, Src2: edgeRes, Imm: int64(8 * (nres % 64))})
		if nres%16 == 15 {
			emit(isa.Instr{Op: isa.OpLdB, Dst: edgeRes, Src1: edgeBase, Imm: int64(8*(nres%64) + nres%8)})
			emit(isa.Instr{Op: isa.OpStB, Src1: edgeBase, Src2: edgeMix, Imm: int64(8*(nres%64) + 3)})
			emit(isa.Instr{Op: isa.OpLd, Dst: edgeRes, Src1: edgeBase, Imm: int64(8 * (nres % 64))})
			emit(isa.Instr{Op: isa.OpCkptSt, Src2: edgeMix})
			emit(isa.Instr{Op: isa.OpSavePC, Imm: int64(len(code))})
			emit(isa.Instr{Op: isa.OpClwb, Src1: edgeBase, Imm: int64(8 * (nres % 64))})
			emit(isa.Instr{Op: isa.OpFence})
			emit(isa.Instr{Op: isa.OpRegionEnd})
		}
		nres++
	}
	for op := isa.OpAdd; op <= isa.OpSltu; op++ {
		for a := range edgeValues {
			for b := range edgeValues {
				emit(isa.Instr{Op: op, Dst: edgeRes, Src1: isa.Reg(a), Src2: isa.Reg(b)})
				fold()
			}
		}
	}
	for op := isa.OpAddI; op <= isa.OpSarI; op++ {
		for a := range edgeValues {
			for _, imm := range edgeValues {
				emit(isa.Instr{Op: op, Dst: edgeRes, Src1: isa.Reg(a), Imm: imm})
				fold()
			}
		}
	}
	site := int64(0)
	for op := isa.OpBeq; op <= isa.OpBgeu; op++ {
		for a := range edgeValues {
			for b := range edgeValues {
				// Taken skips the xori: r13 records which sites fell through.
				br := emit(isa.Instr{Op: op, Src1: isa.Reg(a), Src2: isa.Reg(b)})
				site++
				emit(isa.Instr{Op: isa.OpXorI, Dst: edgeTaken, Src1: edgeTaken, Imm: site * 0x9E3779B1})
				code[br].Target = int32(emit(isa.Instr{Op: isa.OpShlI, Dst: edgeTaken, Src1: edgeTaken, Imm: 1}))
				if site%64 == 0 {
					emit(isa.Instr{Op: isa.OpMov, Dst: edgeRes, Src1: edgeTaken})
					fold()
				}
			}
		}
	}
	// A leaf call and an unconditional jump over the callee.
	call := emit(isa.Instr{Op: isa.OpCall})
	jmp := emit(isa.Instr{Op: isa.OpJmp})
	code[call].Target = int32(emit(isa.Instr{Op: isa.OpNop}))
	emit(isa.Instr{Op: isa.OpMov, Dst: edgeRes, Src1: isa.LR})
	emit(isa.Instr{Op: isa.OpRet})
	code[jmp].Target = int32(emit(isa.Instr{Op: isa.OpMov, Dst: edgeRes, Src1: edgeMix}))
	fold()
	emit(isa.Instr{Op: isa.OpHalt})
	return code
}

// fusedEpochParams cover budget exits (tight and loose budgets), segment
// exits, latency-bound exits (divides, then every memory access) and
// backup requests.
var fusedEpochParams = []epochParams{
	{budget: 1e300, segRem: 1 << 50, maxInstrNs: 1 << 20},
	{budget: 2e-9, segRem: 1 << 50, maxInstrNs: 1 << 20},
	{budget: 3.7e-8, segRem: 1 << 50, maxInstrNs: 1 << 20},
	{budget: 1e-6, segRem: 5000, maxInstrNs: 29},
	{budget: 1e-6, segRem: 1 << 50, maxInstrNs: 35},
	{budget: 1e-12, segRem: 1 << 50, maxInstrNs: 1 << 20},
}

func TestFusedLoopsMatchStepFastOnEveryOpcode(t *testing.T) {
	code := edgeProgram()
	// Every opcode appears in the program.
	seen := map[isa.Op]bool{}
	for _, in := range code {
		seen[in.Op] = true
	}
	for op := isa.OpNop; op <= isa.OpFence; op++ {
		if !seen[op] {
			t.Fatalf("edge program lacks %v", op)
		}
	}
	full := uint64(math.MaxUint64)
	for _, max := range []uint64{full, 4321} {
		ref := runUntracedAll(code, max, false)
		if max == full && !ref.core.Halted {
			t.Fatal("edge program did not halt")
		}
		sameRun(t, "RunUntraced", runUntracedAll(code, max, true), ref)
		for _, ep := range fusedEpochParams {
			sameRun(t, "RunEpoch", runEpochsAll(code, max, ep, true), runEpochsAll(code, max, ep, false))
		}
	}
	// Not a vacuous comparison: the reference stepper took the generic
	// evaluators on edge operands, so pin a few of their results too.
	for _, c := range []struct {
		op      isa.Op
		a, b, r int64
	}{
		{isa.OpDiv, 7, 0, 0}, {isa.OpRem, 7, 0, 0},
		{isa.OpDiv, math.MinInt64, -1, math.MinInt64},
		{isa.OpShl, 1, 64, 1}, {isa.OpShlI, 1, -1, math.MinInt64},
		{isa.OpShrI, -1, 63, 1}, {isa.OpSarI, math.MinInt64, 64, math.MinInt64},
		{isa.OpSltu, -1, 0, 0}, {isa.OpSlt, -1, 0, 1},
	} {
		if got := isa.EvalALU(c.op, c.a, c.b); got != c.r {
			t.Errorf("%v(%d, %d) = %d, want %d", c.op, c.a, c.b, got, c.r)
		}
	}
}

// fuzzProgram decodes a bounded random program: four bytes per
// instruction, a halt appended. Branch, jump and call targets stay
// inside the program; only call writes the link register, so every ret
// lands inside it too.
func fuzzProgram(data []byte) []isa.Instr {
	n := min(len(data)/4, 64)
	code := make([]isa.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		b := data[4*i : 4*i+4]
		op := isa.Op(b[0] % uint8(isa.OpFence+1))
		in := isa.Instr{
			Op:     op,
			Dst:    isa.Reg(b[1] % (isa.NumRegs - 1)),
			Src1:   isa.Reg(b[1] >> 4),
			Src2:   isa.Reg(b[2] % isa.NumRegs),
			Imm:    edgeValues[int(b[3])%len(edgeValues)] + int64(b[3]>>4),
			Target: int32(int(b[2]>>4|b[3]&0xF0) % (n + 1)),
		}
		code = append(code, in)
	}
	return append(code, isa.Instr{Op: isa.OpHalt})
}

func FuzzFusedLoopsMatchStepFast(f *testing.F) {
	f.Add([]byte{byte(isa.OpAddI), 0x11, 0x00, 0x01, byte(isa.OpBlt), 0x10, 0x02, 0x00}, uint8(3), uint16(500))
	f.Add([]byte{
		byte(isa.OpMovI), 0x03, 0, 7, byte(isa.OpSltu), 0x34, 0x05, 0,
		byte(isa.OpRem), 0x12, 0x03, 0, byte(isa.OpSt), 0x21, 0x01, 0x02,
		byte(isa.OpRegionEnd), 0, 0, 0, byte(isa.OpBgeu), 0x01, 0x02, 0x20,
	}, uint8(1), uint16(2000))
	f.Add([]byte{
		byte(isa.OpCall), 0, 0x30, 0x00, byte(isa.OpLd), 0x42, 0, 0,
		byte(isa.OpShlI), 0x22, 0, 5, byte(isa.OpRet), 0, 0, 0,
		byte(isa.OpDiv), 0x51, 0x07, 0, byte(isa.OpFence), 0, 0, 0,
	}, uint8(4), uint16(900))
	f.Fuzz(func(t *testing.T, data []byte, param uint8, max uint16) {
		code := fuzzProgram(data)
		// Cap the instruction budget so looping programs terminate.
		m := uint64(max%4096) + 1
		sameRun(t, "RunUntraced", runUntracedAll(code, m, true), runUntracedAll(code, m, false))
		ep := fusedEpochParams[int(param)%len(fusedEpochParams)]
		sameRun(t, "RunEpoch", runEpochsAll(code, m, ep, true), runEpochsAll(code, m, ep, false))
	})
}
