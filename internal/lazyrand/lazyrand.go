// Package lazyrand provides a math/rand source that yields exactly the
// stream of rand.NewSource(seed), but seeds in constant time and holds no
// generator state for the first 273 draws.
//
// math/rand's source is an additive lagged Fibonacci generator over 607
// words. Seeding it fills all 607 words up front, running 1,841 steps of a
// Lehmer generator (x ← 48271·x mod 2³¹−1), which costs far more than the
// few dozen draws a campaign step makes. Word i of the seeded state only
// depends on the seed x0 and i:
//
//	vec[i] = (x0·48271^(21+3i))<<40 ^ (x0·48271^(22+3i))<<20 ^ (x0·48271^(23+3i)) ^ cooked[i]
//
// (each product mod 2³¹−1, from a precomputed power table). Draw k writes
// vec[333−k] = vec[333−k] + vec[606−k] (indices mod 607) and returns the
// sum. Until draw 273 (the lag) no tap word has been overwritten yet, so
// draw k is a pure function of the seed, word(333−k) + word(606−k), and
// the source keeps only the seed and a draw count. The 274th draw builds
// the 607-word state: every seeded word, then the k writes replayed. From
// there on it runs the plain lagged-Fibonacci loop. Seed resets the count
// and keeps an already built state array for reuse.
package lazyrand

import "math/rand"

const (
	length = 607              // state words (math/rand's rngLen)
	lag    = 273              // tap distance (math/rand's rngTap)
	mod    = 1<<31 - 1        // modulus of the seeding Lehmer generator
	mult   = 48271            // its multiplier
	mask63 = 1<<63 - 1        // Int63 keeps the low 63 bits of Uint64
	zero   = 89482311         // math/rand's replacement for a zero seed
	feed0  = length - lag - 1 // feed index of draw 0; its tap index is length-1
)

var (
	// pow[i] holds 48271^(21+3i), 48271^(22+3i) and 48271^(23+3i) mod
	// 2³¹−1: the Lehmer steps that seed word i, relative to the seed.
	pow [length][3]uint32
	// cooked holds math/rand's per-word seeding constants (rngCooked).
	// They are recovered at init from rand.NewSource(1)'s output rather
	// than copied, so the stream cannot drift from the standard library's.
	cooked [length]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= 20+3*length; k++ {
		p = p * mult % mod
		if k > 20 {
			pow[(k-21)/3][(k-21)%3] = uint32(p)
		}
	}

	// Output k of a freshly seeded source is vec[feed]+vec[tap] with
	// feed = 333−k and tap = 606−k (mod 607), and it overwrites vec[feed].
	// For k ≥ 273 the tap word is the one output k−273 overwrote; for
	// k < 273 it is still a seeded word, one the first loop recovered.
	src := rand.NewSource(1).(rand.Source64)
	var out, v0 [length]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	for k := lag; k < length; k++ {
		v0[(feed0-k+length)%length] = out[k] - out[k-lag]
	}
	for k := 0; k < lag; k++ {
		v0[feed0-k] = out[k] - v0[length-1-k]
	}
	for i := range cooked {
		cooked[i] = v0[i] ^ seeded(1, i)
	}
}

// seeded is word i of the state math/rand derives from seed x0, before the
// cooked constant is mixed in.
func seeded(x0 uint64, i int) int64 {
	p := &pow[i]
	a := int64(x0 * uint64(p[0]) % mod)
	b := int64(x0 * uint64(p[1]) % mod)
	c := int64(x0 * uint64(p[2]) % mod)
	return a<<40 ^ b<<20 ^ c
}

// Source is a rand.Source64 whose output equals that of rand.NewSource
// seeded with the same value. Like math/rand's source, it is not safe for
// concurrent use.
type Source struct {
	x0 uint64 // normalized seed
	// k counts draws up to lag. Draw lag builds vec; from then on
	// tap/feed index it.
	k   int
	vec *[length]int64 // nil until first built; kept across Seed
	// live is set once vec holds the state of the current stream.
	live      bool
	tap, feed int
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream rand.NewSource(seed) yields.
func (s *Source) Seed(seed int64) {
	seed %= mod
	if seed < 0 {
		seed += mod
	}
	if seed == 0 {
		seed = zero
	}
	s.x0 = uint64(seed)
	s.k = 0
	s.live = false
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask63) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	if !s.live {
		if k := s.k; k < lag {
			s.k++
			return uint64(s.word(feed0-k) + s.word(length-1-k))
		}
		s.build()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// word is word i of the seeded state.
func (s *Source) word(i int) int64 { return seeded(s.x0, i) ^ cooked[i] }

// build materializes the state after the first lag draws: every seeded
// word, then the writes those draws made. Their tap words (length-lag and
// up) are never written before draw lag, so replay order does not matter.
func (s *Source) build() {
	if s.vec == nil {
		s.vec = new([length]int64)
	}
	v := s.vec
	for i := range v {
		v[i] = s.word(i)
	}
	for j := 0; j < lag; j++ {
		v[feed0-j] += v[length-1-j]
	}
	s.tap = length - lag     // the next draw taps length-lag-1
	s.feed = feed0 + 1 - lag // and feeds feed0-lag
	s.live = true
}
