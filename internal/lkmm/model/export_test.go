package model

import (
	"fmt"
	"slices"
	"strings"

	"ozz/internal/lkmm"
	"ozz/internal/memmodel"
)

// fmtKey renders a state's fields as text, reading them through the
// layout: only the live entries of each history and store buffer, never
// the bytes past their lengths. It is the oracle the flat visited-set key
// is checked against: keying by a state's raw bytes partitions the state
// space as the fields do only if every unused entry is always zero.
func fmtKey(l *layout, s state) string {
	var b strings.Builder
	fmt.Fprintf(&b, "c%d|", s[0])
	for _, h := range l.hist {
		for i := 0; i < int(s[h]); i++ {
			fmt.Fprintf(&b, "%d:%d,", s[h+1+2*i], s[h+2+2*i])
		}
		b.WriteByte(';')
	}
	for t, q := range l.sb {
		fmt.Fprintf(&b, "p%d,", s[l.pc(t)])
		for i := 0; i < int(s[q]); i++ {
			fmt.Fprintf(&b, "s%d:%d,", s[q+1+2*i], s[q+2+2*i])
		}
		fmt.Fprintf(&b, "w%d,", s[l.window(t)])
		for loc := range l.hist {
			fmt.Fprintf(&b, "%d:%d,", s[l.cowr(t, loc)], s[l.corr(t, loc)])
		}
		b.WriteByte('|')
	}
	for _, r := range l.registers(s) {
		fmt.Fprintf(&b, "r%d,", r)
	}
	return b.String()
}

// RunModelFmtKey is RunModel with the visited set keyed by fmtKey, every
// successor cloned into fresh storage before it is explored, and the
// original exit path (clone, drain every thread, then read the registers).
// It shares only the layout, value table included, and the transition
// rules with RunModel, so it cannot catch a fault in the interning
// (TestRelabelledValues does).
func RunModelFmtKey(t *lkmm.Test, mm *memmodel.Table) *Result {
	out := lkmm.NewOutcomeSet()
	m := &machine{test: t, mm: mm, exhaustive: true}
	m.l.build(t)
	m.slots = make([]uint8, 3*m.l.words)
	visited := map[string]bool{}
	var explore func(s state)
	explore = func(s state) {
		k := fmtKey(&m.l, s)
		if visited[k] {
			return
		}
		visited[k] = true
		done := true
		for ti := range t.Threads {
			if int(s[m.l.pc(ti)]) >= len(t.Threads[ti]) {
				continue
			}
			done = false
			succ, n := m.step(s, ti, 0)
			branches := make([]state, n)
			for i, ns := range succ[:n] {
				branches[i] = slices.Clone(ns)
			}
			for _, ns := range branches {
				explore(ns)
			}
		}
		if done {
			ns := slices.Clone(s)
			for ti := range t.Threads {
				m.l.drain(ns, ti)
			}
			regs := make([]uint64, t.NumRegs)
			for i, v := range m.l.registers(ns) {
				regs[i] = m.l.vals[v]
			}
			out.Add(regs)
		}
	}
	explore(make(state, m.l.words))
	return &Result{Outcomes: out.Outcomes, States: len(visited)}
}
