package arch

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
)

// nvp is the cache-free baseline (Figure 1a): every fetch and data access
// goes to NVM; a voltage monitor JIT-checkpoints the register file to NVFF.
type nvp struct {
	base
	snapRegs cpu.Regs
	snapPC   int64
}

func newNVP(p config.Params) *nvp { return &nvp{base: newBase(p)} }

func (s *nvp) Name() string        { return "NVP" }
func (s *nvp) Kind() Kind          { return NVP }
func (s *nvp) JIT() bool           { return true }
func (s *nvp) Cache() *cache.Cache { return nil }

// FetchCost charges every instruction fetch as an NVM read.
func (s *nvp) FetchCost() cpu.FetchCost {
	return cpu.FetchCost{Ns: s.p.NVPFetchNs, NVM: s.p.ENVMRead}
}

func (s *nvp) Load(now int64, addr int64, byteWide bool) (int64, cpu.Cost) {
	s.led.NVM += s.p.ENVMRead
	var v int64
	if byteWide {
		v = int64(s.nvm.ReadByteAt(addr))
	} else {
		v = s.nvm.ReadWord(addr)
	}
	return v, cpu.Cost{Ns: s.p.NVMReadNs}
}

func (s *nvp) Store(now int64, addr int64, val int64, byteWide bool) cpu.Cost {
	s.led.NVM += s.p.ENVMWrite
	if byteWide {
		s.nvm.WriteByteAt(addr, byte(val))
	} else {
		s.nvm.WriteWord(addr, val)
	}
	return cpu.Cost{Ns: s.p.NVMWriteNs}
}

func (s *nvp) Backup(now int64, regs *cpu.Regs, pc int64) cpu.Cost {
	s.snapRegs = *regs
	s.snapPC = pc
	s.led.Backup += s.p.EBackupFixed
	s.st.BackupEvents++
	return cpu.Cost{Ns: s.p.BackupTimeNs}
}

func (s *nvp) PowerFail(now int64) {}

func (s *nvp) Restore(now int64, regs *cpu.Regs) (int64, cpu.Cost) {
	*regs = s.snapRegs
	s.led.Restore += s.p.ERestoreFixed
	s.st.RestoreEvents++
	return s.snapPC, cpu.Cost{Ns: s.p.RestoreTimeNs}
}

// Boot primes the JIT snapshot with the program entry so a failure before
// the first backup restarts from the beginning.
func (s *nvp) Boot(entryPC int64) {
	s.snapPC = entryPC
	s.snapRegs = cpu.Regs{}
}
