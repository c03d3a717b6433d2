package modules

import "ozz/internal/kernel"

// Build constructs fresh instances of the named modules over k into a new
// Set.
func Build(k *kernel.Kernel, bugs BugSet, names ...string) *Set {
	s := &Set{Names: names}
	s.Build(k, bugs)
	return s
}
