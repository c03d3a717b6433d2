package core

// Minimize shrinks a finding's program, syzkaller-style: it repeatedly
// removes calls other than the concurrent pair while the finding still
// reproduces under the same scheduling hint. Instruction sites are
// static, so the hint stays valid across call removal; only the pair
// indices shift.
//
// It returns the minimized finding, whose program is a copy.
func (e *Env) Minimize(f Finding) Finding {
	f.Prog = f.Prog.Clone()
	for {
		removed := false
		for victim := len(f.Prog.Calls) - 1; victim >= 0; victim-- {
			if victim == f.I || victim == f.J {
				continue
			}
			cand := f
			cand.Prog = f.Prog.Clone()
			cand.Prog.DeleteCall(victim)
			if victim < cand.I {
				cand.I--
			}
			if victim < cand.J {
				cand.J--
			}
			if cand.Reproduced(e.RunMTI(cand.Request(cand.Hint.Reorder, nil))) {
				f, removed = cand, true
				break // restart the scan over the smaller program
			}
		}
		if !removed {
			return f
		}
	}
}
