package report

// Merge inserts every report of other whose title s does not yet know,
// walking other in its first-seen order so the merged set's discovery
// order is s's order followed by other's genuinely new titles. It returns
// the number of reports added. Merge(s) is a no-op and merging the same
// set twice adds nothing. The tests use it to pin Add's first-seen-wins
// deduplication and discovery order across two sets.
func (s *Set) Merge(other *Set) (added int) {
	if other == nil || other == s {
		return 0
	}
	for _, t := range other.order {
		if s.Add(other.byTitle[t]) {
			added++
		}
	}
	return added
}
