package core

import (
	"ozz/internal/hints"
	"ozz/internal/syzlang"
)

// Minimize shrinks a crashing multi-threaded input, syzkaller-style: it
// repeatedly removes calls other than the concurrent pair while the crash
// (same title) still reproduces under the same scheduling hint. Instruction
// sites are static, so the hint stays valid across call removal; only the
// pair indices shift.
//
// It returns the minimized program and the updated pair indices.
func (e *Env) Minimize(p *syzlang.Program, i, j int, h *hints.Hint, title string) (*syzlang.Program, int, int) {
	reproduces := func(q *syzlang.Program, qi, qj int) bool {
		res := e.RunMTI(MTIOpts{Prog: q, I: qi, J: qj, Hint: h})
		return res.Crash != nil && res.Crash.Title == title
	}
	cur, ci, cj := p.Clone(), i, j
	for {
		removed := false
		for victim := len(cur.Calls) - 1; victim >= 0; victim-- {
			if victim == ci || victim == cj {
				continue
			}
			cand := cur.Clone()
			cand.DeleteCall(victim)
			ni, nj := ci, cj
			if victim < ni {
				ni--
			}
			if victim < nj {
				nj--
			}
			if reproduces(cand, ni, nj) {
				cur, ci, cj = cand, ni, nj
				removed = true
				break // restart the scan over the smaller program
			}
		}
		if !removed {
			return cur, ci, cj
		}
	}
}
