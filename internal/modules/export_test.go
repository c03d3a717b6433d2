package modules

import "ozz/internal/kernel"

// Build constructs fresh instances of the named modules over k into a new
// Set. It panics on an unknown name.
func Build(k *kernel.Kernel, bugs BugSet, names ...string) *Set {
	s := &Set{}
	for _, n := range names {
		m := registry[n]
		if m == nil {
			panic("unknown module " + n)
		}
		s.Mods = append(s.Mods, m)
	}
	s.Build(k, bugs)
	return s
}
