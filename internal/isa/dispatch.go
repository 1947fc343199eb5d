// Predecoded dispatch: the interpreter's inner loop wants a dense,
// contiguous switch rather than the chained range tests the symbolic Op
// space requires (IsALURR, IsALURI, ...). Class collapses every opcode
// into one dispatch class — with multiply and divide split out so the
// extra-latency lookup needs no second switch, and the hot immediate
// shifts and signed branches given classes of their own so no generic
// evaluator call sits on the hot path — and Decoded carries the
// instruction fields pre-extracted. The linker predecodes a program once;
// every simulation of that binary then dispatches through the table.
package isa

// Class is the dense dispatch class of an instruction.
type Class uint8

// The classes the fused interpreter loops retire in their call-free inner
// loop come first, numbered densely from zero so that loop's jump table
// stays small; ClassFlags is zero exactly for them.
const (
	ClassNop Class = iota
	// Dedicated classes for the hot pure-compute ops: the fused loops
	// compute these inline, with no second dispatch through EvalALU or
	// BranchTaken.
	ClassAdd      // Dst = Src1 + Src2
	ClassSub      // Dst = Src1 - Src2
	ClassAnd      // Dst = Src1 & Src2
	ClassOr       // Dst = Src1 | Src2
	ClassXor      // Dst = Src1 ^ Src2
	ClassAddI     // Dst = Src1 + Imm
	ClassAndI     // Dst = Src1 & Imm
	ClassOrI      // Dst = Src1 | Imm
	ClassXorI     // Dst = Src1 ^ Imm
	ClassShlI     // Dst = Src1 << (Imm & 63)
	ClassShrI     // Dst = Src1 >>> (Imm & 63), logical
	ClassSarI     // Dst = Src1 >> (Imm & 63), arithmetic
	ClassALURRMul // Mul: pays the multiplier's extra cycles
	ClassALURIMul // MulI
	ClassMovI
	ClassMov
	ClassBeq // taken iff Src1 == Src2
	ClassBne // taken iff Src1 != Src2
	ClassBlt // taken iff Src1 < Src2, signed
	ClassBge // taken iff Src1 >= Src2, signed
	ClassJmp
	ClassCall
	ClassRet

	// The rest leave the inner loop for its slow path.
	ClassALURR    // shl, shr, sar, slt, sltu, resolved via EvalALU
	ClassALURRDiv // Div/Rem: pays the divider's extra cycles
	ClassBranch   // bltu, bgeu, resolved via BranchTaken
	ClassHalt
	ClassLd
	ClassLdB
	ClassSt
	ClassStB
	ClassCkptSt
	ClassSavePC
	ClassRegionEnd
	ClassClwb
	ClassFence

	NumClasses
)

// TouchesMemSystem reports whether interpreting an instruction of class
// cl can call into the memory system beyond the per-instruction fetch.
// Scheme state (persist buffers, rename tables, structural-backup
// requests) can only change across such instructions, which lets the
// engine hoist per-instruction scheme queries out of pure-compute runs.
func (cl Class) TouchesMemSystem() bool {
	switch cl {
	case ClassLd, ClassLdB, ClassSt, ClassStB,
		ClassCkptSt, ClassSavePC, ClassRegionEnd, ClassClwb, ClassFence:
		return true
	}
	return false
}

// Interpreter fast-path flags, one byte per class: the fused engine
// loops test the whole byte for zero to stay in their call-free inner
// loop with a single branch instead of re-deriving each property.
const (
	// FlagMemSystem mirrors TouchesMemSystem.
	FlagMemSystem uint8 = 1 << iota
	// FlagDelim marks the region delimiters (region end, fence).
	FlagDelim
	// FlagHalt marks the halt class.
	FlagHalt
	// FlagGeneric marks the pure-compute classes resolved through the
	// generic evaluators (EvalALU, BranchTaken), which the fused loops
	// retire in their slow path, and every byte that is not a class.
	FlagGeneric
)

// ClassFlags tabulates the fast-path flags per class. It spans every
// Class value, so indexing it needs no bounds check, and a byte that is
// no class is flagged so the fused loops reach their unknown-class panic.
var ClassFlags = func() (t [256]uint8) {
	for cl := range t {
		var f uint8
		if Class(cl).TouchesMemSystem() {
			f |= FlagMemSystem
		}
		switch Class(cl) {
		case ClassRegionEnd, ClassFence:
			f |= FlagDelim
		case ClassHalt:
			f |= FlagHalt
		case ClassALURR, ClassALURRDiv, ClassBranch:
			f |= FlagGeneric
		}
		if cl >= int(NumClasses) {
			f |= FlagGeneric
		}
		t[cl] = f
	}
	return t
}()

// Class returns the dispatch class of o. It panics on an opcode outside
// the ISA, mirroring the interpreter's malformed-code contract.
func (o Op) Class() Class {
	switch {
	case o == OpNop:
		return ClassNop
	case o == OpAdd:
		return ClassAdd
	case o == OpSub:
		return ClassSub
	case o == OpAnd:
		return ClassAnd
	case o == OpOr:
		return ClassOr
	case o == OpXor:
		return ClassXor
	case o == OpAddI:
		return ClassAddI
	case o == OpAndI:
		return ClassAndI
	case o == OpOrI:
		return ClassOrI
	case o == OpXorI:
		return ClassXorI
	case o == OpMul:
		return ClassALURRMul
	case o == OpDiv, o == OpRem:
		return ClassALURRDiv
	case o.IsALURR():
		return ClassALURR
	case o == OpMulI:
		return ClassALURIMul
	case o == OpShlI:
		return ClassShlI
	case o == OpShrI:
		return ClassShrI
	case o == OpSarI:
		return ClassSarI
	case o == OpMovI:
		return ClassMovI
	case o == OpMov:
		return ClassMov
	case o == OpLd:
		return ClassLd
	case o == OpLdB:
		return ClassLdB
	case o == OpSt:
		return ClassSt
	case o == OpStB:
		return ClassStB
	case o == OpBeq:
		return ClassBeq
	case o == OpBne:
		return ClassBne
	case o == OpBlt:
		return ClassBlt
	case o == OpBge:
		return ClassBge
	case o.IsBranch():
		return ClassBranch
	case o == OpJmp:
		return ClassJmp
	case o == OpCall:
		return ClassCall
	case o == OpRet:
		return ClassRet
	case o == OpHalt:
		return ClassHalt
	case o == OpCkptSt:
		return ClassCkptSt
	case o == OpSavePC:
		return ClassSavePC
	case o == OpRegionEnd:
		return ClassRegionEnd
	case o == OpClwb:
		return ClassClwb
	case o == OpFence:
		return ClassFence
	}
	panic("isa: no dispatch class for " + o.String())
}

// Decoded is the predecoded form of one instruction: the dispatch class
// plus every operand field extracted, sized so a program's decode table
// stays cache-resident alongside its code.
type Decoded struct {
	Class  Class
	Op     Op // retained for EvalALU and diagnostics
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Target int32
	Imm    int64
}

// Predecode builds the dispatch table for code. The result is immutable
// and position-matched: dec[pc] describes code[pc].
func Predecode(code []Instr) []Decoded {
	dec := make([]Decoded, len(code))
	for i, in := range code {
		dec[i] = Decoded{
			Class:  in.Op.Class(),
			Op:     in.Op,
			Dst:    in.Dst,
			Src1:   in.Src1,
			Src2:   in.Src2,
			Target: in.Target,
			Imm:    in.Imm,
		}
	}
	return dec
}
