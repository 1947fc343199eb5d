package cpu

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
)

// flatMem is a trivial MemSystem over a map, with fixed op latencies.
type flatMem struct {
	words   map[int64]int64
	loadNs  int64
	storeNs int64
	regions int
	clwbs   int
	fences  int
}

func newFlatMem() *flatMem { return &flatMem{words: map[int64]int64{}} }

func (m *flatMem) Load(now int64, addr int64, byteWide bool) (int64, Cost) {
	w := m.words[addr&^7]
	if byteWide {
		return int64(byte(uint64(w) >> (8 * (uint64(addr) & 7)))), Cost{Ns: m.loadNs}
	}
	return m.words[addr], Cost{Ns: m.loadNs}
}

func (m *flatMem) Store(now int64, addr int64, val int64, byteWide bool) Cost {
	if byteWide {
		w := uint64(m.words[addr&^7])
		sh := 8 * (uint64(addr) & 7)
		w = w&^(0xFF<<sh) | uint64(byte(val))<<sh
		m.words[addr&^7] = int64(w)
	} else {
		m.words[addr] = val
	}
	return Cost{Ns: m.storeNs}
}

func (m *flatMem) RegionEnd(now int64) Cost        { m.regions++; return Cost{} }
func (m *flatMem) Clwb(now int64, addr int64) Cost { m.clwbs++; return Cost{} }
func (m *flatMem) Fence(now int64) Cost            { m.fences++; return Cost{} }

var timing = StepTiming{CycleNs: 2, MulCycles: 3, DivCycles: 12}

// run executes the linked program to halt and returns the core.
func run(t *testing.T, l *ir.Linked, m MemSystem) *CPU {
	t.Helper()
	c := New(l.Code, int64(l.EntryPC))
	for i := 0; i < 100000 && !c.Halted; i++ {
		c.StepFast(0, m, timing)
	}
	if !c.Halted {
		t.Fatal("program did not halt")
	}
	return c
}

func TestArithmeticAndControl(t *testing.T) {
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	// sum 1..10 into r2
	en.MovI(0, 1)
	en.MovI(1, 10)
	en.MovI(2, 0)
	en.Jmp(head)
	head.Bge(0, 1, exit, body) // note: exits when r0 >= 10, so sums 1..9
	body.Add(2, 2, 0)
	body.AddI(0, 0, 1)
	body.Jmp(head)
	exit.MovI(3, 100)
	exit.St(3, 0, 2)
	exit.Halt()
	l, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	m := newFlatMem()
	c := run(t, l, m)
	if m.words[100] != 45 {
		t.Errorf("sum = %d", m.words[100])
	}
	if c.Counts.Stores != 1 || c.Counts.Branches != 10 {
		t.Errorf("counts: %+v", c.Counts)
	}
}

func TestCallRet(t *testing.T) {
	p := ir.NewProgram("t")
	callee := p.NewFunc("double")
	p.SetEntry(nil)
	main := p.NewFunc("main")
	p.SetEntry(main)
	ce := callee.Entry()
	ce.Add(1, 0, 0) // r1 = 2*r0
	ce.Ret()
	en := main.Entry()
	cont := main.NewBlock("cont")
	en.MovI(0, 21)
	en.Call(callee, cont)
	cont.MovI(2, 64)
	cont.St(2, 0, 1)
	cont.Halt()
	l, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	m := newFlatMem()
	c := run(t, l, m)
	if m.words[64] != 42 {
		t.Errorf("result = %d", m.words[64])
	}
	if c.Counts.Calls != 1 {
		t.Error("call count")
	}
}

func TestByteLoadStore(t *testing.T) {
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	en.MovI(0, 64)
	en.MovI(1, 0x1FF) // low byte 0xFF
	en.StB(0, 3, 1)
	en.LdB(2, 0, 3)
	en.MovI(3, 128)
	en.St(3, 0, 2)
	en.Halt()
	l, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	m := newFlatMem()
	run(t, l, m)
	if m.words[128] != 0xFF {
		t.Errorf("byte round trip = %#x", m.words[128])
	}
}

func TestLatencies(t *testing.T) {
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	en.MovI(0, 5)
	en.Mul(1, 0, 0)
	en.Div(2, 1, 0)
	en.Halt()
	l, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	c := New(l.Code, int64(l.EntryPC))
	m := newFlatMem()
	var total int64
	for !c.Halted {
		ns, _ := c.StepFast(0, m, timing)
		total += ns
	}
	// movi 2 + mul 6 + div 24 + halt 2 = 34.
	if total != 34 {
		t.Errorf("total ns = %d", total)
	}
}

func TestCkptAndSavePCSemantics(t *testing.T) {
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	en.MovI(5, 777)
	// Raw compiler-style instructions.
	en.Instrs = append(en.Instrs,
		isa.Instr{Op: isa.OpCkptSt, Src2: 5},
		isa.Instr{Op: isa.OpSavePC, Imm: 1234},
		isa.Instr{Op: isa.OpRegionEnd},
		isa.Instr{Op: isa.OpClwb, Src1: 5},
		isa.Instr{Op: isa.OpFence},
	)
	en.Halt()
	l, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	m := newFlatMem()
	c := run(t, l, m)
	if m.words[ir.CkptSlotAddr(5)] != 777 {
		t.Error("ckpt.st did not store to the register's slot")
	}
	// The linker re-patches every save.pc immediate to its own PC+2
	// (the next region's first instruction): movi=0, ckpt=1, save.pc=2.
	if m.words[ir.PCSlotAddr] != 4 {
		t.Errorf("PC slot = %d, want 4", m.words[ir.PCSlotAddr])
	}
	if m.regions != 1 || m.clwbs != 1 || m.fences != 1 {
		t.Errorf("hooks: %d %d %d", m.regions, m.clwbs, m.fences)
	}
	if c.Counts.CkptStores != 1 || c.Counts.SavePCs != 1 {
		t.Errorf("counts: %+v", c.Counts)
	}
}

func TestHaltStopsStepping(t *testing.T) {
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	f.Entry().Halt()
	l, _ := ir.Link(p)
	c := New(l.Code, int64(l.EntryPC))
	m := newFlatMem()
	c.StepFast(0, m, timing)
	if !c.Halted {
		t.Fatal("not halted")
	}
	before := c.Counts.Executed
	if ns, _ := c.StepFast(0, m, timing); ns != 0 || c.Counts.Executed != before {
		t.Error("step after halt had effects")
	}
}
