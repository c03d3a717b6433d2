package diff

// Property-based generation of random litmus shapes. The generator is a
// pure function of (seed, index) — splitmix64 keyed by both — so any
// failing shape replays deterministically from the numbers in the report
// without regenerating its predecessors. Shapes are kept small (2-3
// threads, at most 6 operations total) both to respect lkmm.Run's
// directive-mask limit and to keep the exhaustive product enumeration
// cheap enough for hundreds of shapes per CI run.

import (
	"fmt"

	"ozz/internal/lkmm"
	"ozz/internal/memmodel"
	"ozz/internal/trace"
)

// rng is a splitmix64 stream (Steele et al.), matching the generator used
// elsewhere in the repo for deterministic shuffles.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// n returns a value in [0, m).
func (r *rng) n(m int) int { return int(r.next() % uint64(m)) }

// mix finalizes one splitmix64 round, used to decorrelate the per-shape
// streams: adjacent (seed, index) pairs must not produce shifted copies
// of one sequence.
func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MaxGenOps bounds the total operation count of a generated shape. Six
// ops means at most six delayable/versionable sites, well inside
// lkmm.MaxDirectiveSites.
const MaxGenOps = 6

// Shape deterministically generates the index-th random litmus shape of
// the given seed: 2-3 threads, 3 to MaxGenOps operations total over 1-2
// locations, mixing plain/annotated/acquire/release accesses and all
// three barrier kinds.
func Shape(seed uint64, index int) *lkmm.Test {
	r := &rng{s: mix(seed ^ (uint64(index)+1)*0xd1342543de82ef95)}
	nThreads := 2 + r.n(2)
	nOps := 3 + r.n(MaxGenOps-2) // 3..MaxGenOps
	if nOps < nThreads {
		nOps = nThreads // every thread gets at least one op
	}
	nLocs := 1 + r.n(2)
	threads := make([][]lkmm.Op, nThreads)
	reg := 0
	for i := 0; i < nOps; i++ {
		// First nThreads ops seed one per thread; the rest land randomly.
		ti := i
		if i >= nThreads {
			ti = r.n(nThreads)
		}
		threads[ti] = append(threads[ti], genOp(r, nLocs, &reg))
	}
	return &lkmm.Test{
		Name:    fmt.Sprintf("gen[seed=%#x,i=%d]", seed, index),
		Threads: threads,
		NumLocs: nLocs,
		NumRegs: reg,
	}
}

func genOp(r *rng, nLocs int, reg *int) lkmm.Op {
	switch roll := r.n(10); {
	case roll < 4: // store
		op := lkmm.W(r.n(nLocs), uint64(1+r.n(3)))
		switch r.n(5) {
		case 0:
			op.Atomic = trace.Once
		case 1:
			op.Atomic = trace.AtomicRelease
		}
		return op
	case roll < 8: // load
		op := lkmm.R(r.n(nLocs), *reg)
		*reg++
		switch r.n(5) {
		case 0:
			op.Atomic = trace.Once
		case 1:
			op.Atomic = trace.AtomicAcquire
		}
		return op
	default: // barrier
		switch r.n(3) {
		case 0:
			return lkmm.Mb()
		case 1:
			return lkmm.Rmb()
		default:
			return lkmm.Wmb()
		}
	}
}

// GenFailure is one divergence found by CrossCheck, with the shrunk
// minimal counterexample.
type GenFailure struct {
	// Index is the shape's index within the run; Shape(Seed, Index)
	// replays it.
	Index int
	// Seed is the run seed.
	Seed uint64
	// Div is the divergence on the generated shape.
	Div *Divergence
	// ShrunkDiv is the divergence on the shrunk minimal shape.
	ShrunkDiv *Divergence
}

// String renders the failure with its replay coordinates.
func (f *GenFailure) String() string {
	return fmt.Sprintf("shape %d of seed %#x: %s\nshrunk: %s",
		f.Index, f.Seed, f.Div, f.ShrunkDiv)
}

// CrossCheck generates n shapes from the seed and cross-checks each
// through Compare under the LKMM, shrinking every divergence to a minimal
// counterexample. It returns all failures (empty means OEMU and the
// model agreed on every shape).
func CrossCheck(seed uint64, n int) []GenFailure {
	return CrossCheckModel(seed, n, memmodel.LKMM)
}

// CrossCheckModel is CrossCheck under an arbitrary memory model: the same
// deterministic shape stream, each shape compared against the model's own
// reference enumeration. Running the identical (seed, n) stream once per
// registered model is how CI covers every model with the same shapes.
func CrossCheckModel(seed uint64, n int, mm *memmodel.Table) []GenFailure {
	var fails []GenFailure
	for i := 0; i < n; i++ {
		t := Shape(seed, i)
		d := CompareModel(t, mm)
		if d == nil {
			continue
		}
		shrunk := Shrink(t, func(c *lkmm.Test) bool { return CompareModel(c, mm) != nil })
		fails = append(fails, GenFailure{Index: i, Seed: seed, Div: d, ShrunkDiv: CompareModel(shrunk, mm)})
	}
	return fails
}

// Shrink greedily minimizes a failing shape: it repeatedly tries to drop
// whole threads, then single operations, keeping any candidate for which
// fails still holds, until no removal preserves the failure. NumLocs and
// NumRegs are left untouched so outcome strings stay comparable across
// shrink steps.
func Shrink(t *lkmm.Test, fails func(*lkmm.Test) bool) *lkmm.Test {
	cur := cloneTest(t)
	for changed := true; changed; {
		changed = false
		for ti := 0; ti < len(cur.Threads) && len(cur.Threads) > 1; ti++ {
			cand := cloneTest(cur)
			cand.Threads = append(cand.Threads[:ti:ti], cand.Threads[ti+1:]...)
			if fails(cand) {
				cur, changed = cand, true
				break
			}
		}
		if changed {
			continue
		}
		for ti := range cur.Threads {
			for oi := range cur.Threads[ti] {
				cand := cloneTest(cur)
				th := cand.Threads[ti]
				cand.Threads[ti] = append(th[:oi:oi], th[oi+1:]...)
				if fails(cand) {
					cur, changed = cand, true
					break
				}
			}
			if changed {
				break
			}
		}
	}
	cur.Name = t.Name + " (shrunk)"
	return cur
}

func cloneTest(t *lkmm.Test) *lkmm.Test {
	c := *t
	c.Threads = make([][]lkmm.Op, len(t.Threads))
	for i, th := range t.Threads {
		c.Threads[i] = append([]lkmm.Op(nil), th...)
	}
	return &c
}
