package isa

import (
	"fmt"
	"testing"
)

// TestClassCoversAllOps proves every opcode the assembler can emit has a
// dispatch class (Class panics on an unmapped op, so predecoding a
// program containing one would fail at link time, not mid-simulation).
func TestClassCoversAllOps(t *testing.T) {
	for op := Op(0); op < opSentinel(); op++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("op %v has no dispatch class", op)
				}
			}()
			_ = op.Class()
		}()
	}
}

// opSentinel returns one past the highest defined opcode by scanning the
// name table (undefined ops render as "op(N)").
func opSentinel() Op {
	op := Op(0)
	for ; op.String() != fmt.Sprintf("op(%d)", uint8(op)); op++ {
	}
	return op
}

func TestClassLatencySplits(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{OpMul, ClassALURRMul},
		{OpDiv, ClassALURRDiv},
		{OpRem, ClassALURRDiv},
		{OpMulI, ClassALURIMul},
		{OpAdd, ClassAdd},
		{OpAddI, ClassAddI},
		{OpXor, ClassXor},
		{OpShl, ClassALURR},
		{OpSltu, ClassALURR},
		{OpShlI, ClassShlI},
		{OpShrI, ClassShrI},
		{OpSarI, ClassSarI},
		{OpBeq, ClassBeq},
		{OpBne, ClassBne},
		{OpBlt, ClassBlt},
		{OpBge, ClassBge},
		{OpBltu, ClassBranch},
		{OpBgeu, ClassBranch},
		{OpRegionEnd, ClassRegionEnd},
		{OpFence, ClassFence},
		{OpCkptSt, ClassCkptSt},
	}
	for _, c := range cases {
		if got := c.op.Class(); got != c.want {
			t.Errorf("%v.Class() = %d, want %d", c.op, got, c.want)
		}
	}
}

// TestClassFlagsPartition pins the split the fused interpreter loops rely
// on: a class is flagged iff it calls out (memory system, generic
// evaluator) or ends the loop (halt, delimiter), the unflagged classes
// are a dense prefix of the numbering, and no byte beyond the last class
// is unflagged.
func TestClassFlagsPartition(t *testing.T) {
	generic := map[Class]bool{ClassALURR: true, ClassALURRDiv: true, ClassBranch: true}
	inner := 0
	for cl := 0; cl < len(ClassFlags); cl++ {
		f := ClassFlags[cl]
		if cl >= int(NumClasses) {
			if f == 0 {
				t.Errorf("byte %d is no class but unflagged", cl)
			}
			continue
		}
		c := Class(cl)
		want := c.TouchesMemSystem() || c == ClassHalt || generic[c]
		if (f != 0) != want {
			t.Errorf("class %d: flags %#x, want flagged=%v", cl, f, want)
		}
		if f == 0 {
			if cl != inner {
				t.Errorf("unflagged class %d follows a flagged one", cl)
			}
			inner++
		}
	}
	if inner != int(ClassALURR) {
		t.Errorf("%d unflagged classes, want the %d before ClassALURR", inner, ClassALURR)
	}
}

func TestPredecodeMirrorsInstrs(t *testing.T) {
	code := []Instr{
		{Op: OpMovI, Dst: 3, Imm: 42},
		{Op: OpAdd, Dst: 1, Src1: 2, Src2: 3},
		{Op: OpLd, Dst: 4, Src1: 1, Imm: 8},
		{Op: OpBeq, Src1: 1, Src2: 2, Target: 7},
		{Op: OpHalt},
	}
	dec := Predecode(code)
	if len(dec) != len(code) {
		t.Fatalf("len = %d, want %d", len(dec), len(code))
	}
	for i, in := range code {
		d := dec[i]
		if d.Op != in.Op || d.Class != in.Op.Class() ||
			d.Dst != in.Dst || d.Src1 != in.Src1 || d.Src2 != in.Src2 ||
			d.Target != in.Target || d.Imm != in.Imm {
			t.Errorf("instr %d: decoded %+v from %+v", i, d, in)
		}
	}
}
