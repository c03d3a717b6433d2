package model

import (
	"fmt"
	"slices"
	"strings"

	"ozz/internal/lkmm"
	"ozz/internal/memmodel"
)

// fmtKey is the original text encoding of a state, kept as the oracle the
// binary visited-state key is checked against: a different but equally
// injective key must partition the state space identically.
func fmtKey(s *state) string {
	var b strings.Builder
	fmt.Fprintf(&b, "c%d|", s.clock)
	for _, h := range s.hist {
		for _, v := range h {
			fmt.Fprintf(&b, "%d:%d,", v.time, v.val)
		}
		b.WriteByte(';')
	}
	for i := range s.pc {
		fmt.Fprintf(&b, "p%d,", s.pc[i])
		for _, p := range s.sb[i] {
			fmt.Fprintf(&b, "s%d:%d,", p.loc, p.val)
		}
		fmt.Fprintf(&b, "w%d,", s.tRmb[i])
		for l := range s.hist {
			fmt.Fprintf(&b, "%d:%d,", s.lastCommit[s.at(i, l)], s.seen[s.at(i, l)])
		}
		b.WriteByte('|')
	}
	for _, r := range s.regs {
		fmt.Fprintf(&b, "r%d,", r)
	}
	return b.String()
}

// clone deep-copies the state into freshly allocated storage.
func (s *state) clone() *state {
	ns := &state{
		clock: s.clock,
		hist:  make([][]version, len(s.hist)),
		pc:    slices.Clone(s.pc),
		sb:    make([][]pendingStore, len(s.sb)),
		slab:  slices.Clone(s.slab),
	}
	ns.carve()
	for i, h := range s.hist {
		ns.hist[i] = slices.Clone(h)
	}
	for i, b := range s.sb {
		ns.sb[i] = slices.Clone(b)
	}
	return ns
}

// RunModelFmtKey is RunModel with the visited set keyed by fmtKey, every
// successor cloned into fresh storage before it is explored, and the
// original exit path (clone, drain every thread, then read the registers).
// It shares only the transition rules with RunModel.
func RunModelFmtKey(t *lkmm.Test, mm *memmodel.Table) *Result {
	m := &machine{test: t, mm: mm, slots: newStates(t, 2)}
	out := lkmm.NewOutcomeSet()
	visited := map[string]bool{}
	var explore func(s *state)
	explore = func(s *state) {
		k := fmtKey(s)
		if visited[k] {
			return
		}
		visited[k] = true
		done := true
		for ti := range t.Threads {
			if s.pc[ti] >= len(t.Threads[ti]) {
				continue
			}
			done = false
			succ, n := m.step(s, ti, 0)
			branches := make([]*state, n)
			for i, ns := range succ[:n] {
				branches[i] = ns.clone()
			}
			for _, ns := range branches {
				explore(ns)
			}
		}
		if done {
			ns := s.clone()
			for ti := range t.Threads {
				ns.drain(ti)
			}
			out.Add(ns.regs)
		}
	}
	explore(&newStates(t, 1)[0])
	return &Result{Outcomes: out.Outcomes, States: len(visited)}
}
