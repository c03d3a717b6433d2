package kmem

import "ozz/internal/trace"

// ObjectWords returns the size in words of the live object at base, or 0.
func (m *Memory) ObjectWords(base trace.Addr) int {
	if i, ok := m.find(base); ok {
		return m.objects[i].words
	}
	return 0
}
