package kmem

import "ozz/internal/trace"

// ObjectWords returns the size in words of the live object at base, or 0.
func (m *Memory) ObjectWords(base trace.Addr) int {
	if obj, ok := m.objects[base]; ok {
		return obj.words
	}
	return 0
}
