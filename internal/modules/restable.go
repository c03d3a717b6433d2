package modules

import "ozz/internal/trace"

// errno values returned by syscall implementations (negated, like the
// kernel ABI).
const (
	EOK    uint64 = 0
	EBADF  uint64 = ^uint64(8) + 1  // -9
	EAGAIN uint64 = ^uint64(10) + 1 // -11
	EINVAL uint64 = ^uint64(21) + 1 // -22
	EBUSY  uint64 = ^uint64(15) + 1 // -16
)

// resInline is how many handles a resTable holds in its inline array:
// a generated program has ProgLen (4) calls, so most runs never grow the
// overflow slice.
const resInline = 4

// resTable maps small resource handles (what syscalls return and accept,
// like file descriptors) to object base addresses, so that fuzzer-mutated
// handle arguments fail with EBADF instead of wild dereferences. The
// first resInline handles live inside the module state, so a run that
// creates no more than that allocates nothing here.
type resTable struct {
	n      int
	inline [resInline]trace.Addr
	more   []trace.Addr // handles resInline+1 and up
}

// add registers an object and returns its handle (1-based; 0 is invalid).
func (r *resTable) add(a trace.Addr) uint64 {
	if r.n < resInline {
		r.inline[r.n] = a
	} else {
		r.more = append(r.more, a)
	}
	r.n++
	return uint64(r.n)
}

// get resolves a handle.
func (r *resTable) get(h uint64) (trace.Addr, bool) {
	if h == 0 || h > uint64(r.n) {
		return 0, false
	}
	if h <= resInline {
		return r.inline[h-1], true
	}
	return r.more[h-1-resInline], true
}
