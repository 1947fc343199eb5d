package cpu

// Exit points of the fused epoch loop for a scheme that charges fetch
// energy: RunEpoch skips the exact budget fold while both Compute and NVM
// sit below their watermarks, so it must still stop on exactly the
// instruction where a per-instruction Total()-LedStart >= Budget check
// first goes true — on a pure-compute instruction (only the engine charge
// and the fetch energy moved the ledger) and on a load (the memory system
// also charged NVM).

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/isa"
)

// nvmLoadMem is flatMem whose loads also charge the ledger's NVM field,
// as the cache-free NVP's do.
type nvmLoadMem struct {
	*flatMem
	led   *energy.Ledger
	eLoad float64
}

func (m *nvmLoadMem) Load(now int64, addr int64, byteWide bool) (int64, Cost) {
	m.led.NVM += m.eLoad
	return m.flatMem.Load(now, addr, byteWide)
}

// epochProgram loops long enough to outlast every budget below, mixing
// pure-compute instructions (ALU ops, a multiply, branches) with loads.
func epochProgram(t *testing.T) *ir.Linked {
	t.Helper()
	p := ir.NewProgram("epoch")
	f := p.NewFunc("main")
	en := f.Entry()
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	en.MovI(0, 0)
	en.MovI(1, 1_000_000)
	en.MovI(2, 64)
	en.Jmp(head)
	head.Bge(0, 1, exit, body)
	body.Add(3, 3, 0)
	body.Xor(4, 4, 3)
	body.Ld(5, 2, 0)
	body.Mul(6, 5, 3)
	body.AddI(0, 0, 1)
	body.Ld(7, 2, 8)
	body.Add(3, 3, 7)
	body.Jmp(head)
	exit.Halt()
	l, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRunEpochStopsAtExactBudgetWithFetchEnergy(t *testing.T) {
	l := epochProgram(t)
	tm := StepTiming{CycleNs: 2, MulCycles: 3, DivCycles: 12,
		Fetch: FetchCost{Ns: 50, NVM: 1e-10}}
	const eInstr, pRun, eLoad = 1e-11, 1e-3, 3e-10
	eByNs := make([]float64, 256)
	for ns := range eByNs {
		eByNs[ns] = eInstr + pRun*float64(ns)*1e-9
	}
	charge := func(ns int64) float64 {
		if ns < int64(len(eByNs)) {
			return eByNs[ns]
		}
		return eInstr + pRun*float64(ns)*1e-9
	}
	// A ledger that does not start at zero, so LedStart matters.
	start := energy.Ledger{Compute: 3e-9, NVM: 1e-9, Persist: 2e-10}

	var pureExits, memExits int
	for i := 0; i < 400; i++ {
		budget := 1e-10 * math.Pow(1.025, float64(i))

		// Reference: step and compare exactly after every instruction.
		refLed := start
		ref := NewLinked(l)
		refMem := &nvmLoadMem{flatMem: newFlatMem(), led: &refLed, eLoad: eLoad}
		ledStart := refLed.Total()
		var now int64
		var exitClass isa.Class
		for !ref.Halted {
			refLed.NVM += tm.Fetch.NVM
			ns, cl := ref.StepFast(now, refMem, tm)
			refLed.Compute += charge(ns)
			now += ns
			if refLed.Total()-ledStart >= budget {
				exitClass = cl
				break
			}
		}
		if ref.Halted {
			t.Fatalf("budget %g: program halted before the budget was reached", budget)
		}

		led := start
		c := NewLinked(l)
		m := &nvmLoadMem{flatMem: newFlatMem(), led: &led, eLoad: eLoad}
		ec := &EpochControl{
			EByNs: eByNs, EInstr: eInstr, PRun: pRun, Max: math.MaxUint64,
			Led: &led, LedStart: ledStart, Budget: budget,
			SegRem: 1 << 50, MaxInstrNs: 1 << 20,
			OnRegionEnd: func(int) {},
		}
		elapsed, _ := c.RunEpoch(0, m, tm, ec)

		if c.Counts.Executed != ref.Counts.Executed {
			t.Fatalf("budget %g: RunEpoch retired %d instructions, exact check stops after %d (class %d)",
				budget, c.Counts.Executed, ref.Counts.Executed, exitClass)
		}
		if c.PC != ref.PC || elapsed != now || led != refLed {
			t.Fatalf("budget %g: state differs at the exit point: pc %d/%d, elapsed %d/%d, ledger %+v/%+v",
				budget, c.PC, ref.PC, elapsed, now, led, refLed)
		}
		if isa.ClassFlags[exitClass] == 0 {
			pureExits++
		} else if exitClass.TouchesMemSystem() {
			memExits++
		}
	}
	if pureExits == 0 || memExits == 0 {
		t.Fatalf("exit points cover %d pure-compute and %d memory-touch instructions; want both", pureExits, memExits)
	}
}
