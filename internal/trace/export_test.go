package trace

import (
	"fmt"
	"strings"
)

// Dump renders all events one per line, for test failure messages.
func (b *Buffer) Dump() string {
	var sb strings.Builder
	for i, e := range b.Events {
		fmt.Fprintf(&sb, "%3d: %s\n", i, e)
	}
	return sb.String()
}
