package kernel

// FnName returns the registered name for a function-pointer value, for
// reports ("<null>" for 0, "<wild>" otherwise).
func (k *Kernel) FnName(val uint64) string {
	if val == 0 {
		return "<null>"
	}
	if val&FnBase == FnBase {
		idx := int(val &^ FnBase)
		if idx > 0 && idx < len(k.fnNames) {
			return k.fnNames[idx]
		}
	}
	return "<wild>"
}
