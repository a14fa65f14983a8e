package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// The tests in this file pin the package-local generator to math/rand
// draw by draw. Every seeded schedule in the repository — and the golden
// fingerprints over them — depends on the two streams being identical.

// sourceSeeds covers math/rand's seed normalization: zero (replaced by
// 89482311), negative seeds, 2³¹−1 and its multiples (which reduce to
// zero), and seeds beyond 32 bits.
var sourceSeeds = []int64{0, 1, -3, 89482311, 1<<31 - 1, 5 * (1<<31 - 1), 1 << 40, -1 << 62}

func newSource(seed int64) *source {
	s := new(source)
	s.seed(seed)
	return s
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds {
		got, want := newSource(seed), rand.NewSource(seed)
		for i := 0; i < 5*rngLen; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: source = %d, math/rand = %d", seed, i, g, w)
			}
		}
	}
}

func TestSeedMultiplierCube(t *testing.T) {
	if got := mulmod(mulmod(seedMul, seedMul), seedMul); got != seedMul3 {
		t.Fatalf("48271³ mod 2³¹−1 = %d, seedMul3 = %d", got, seedMul3)
	}
}

// skipMatchesDraws checks that `pre` draws match math/rand's, and that
// Skip(n) after them leaves the stream where n discarded math/rand draws
// would.
func skipMatchesDraws(t *testing.T, seed int64, pre int, n int64) {
	t.Helper()
	got, want := newSource(seed), rand.NewSource(seed)
	for i := 0; i < pre; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: draw %d = %d, math/rand = %d", seed, i, g, w)
		}
	}
	got.Skip(n)
	for i := int64(0); i < n; i++ {
		want.Int63()
	}
	for i := 0; i < 2*rngLen; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d, %d draws then Skip(%d): draw %d = %d, math/rand = %d",
				seed, pre, n, i, g, w)
		}
	}
}

func TestSkipMatchesDraws(t *testing.T) {
	for _, n := range []int64{0, 1, 606, 607, 608, 100_000} {
		for _, pre := range []int{0, 1, 300, 606, 607} {
			skipMatchesDraws(t, 42, pre, n)
		}
	}
	// For every seed: draws up to each edge of the lazily built first
	// block, then short skips; and every skip length up to just past two
	// blocks straight after seeding.
	for _, seed := range sourceSeeds {
		for _, pre := range lazyEdges() {
			for _, n := range []int64{0, 1, seedChunk - 1, seedChunk, seedChunk + 1, 61, rngTap, rngLen} {
				skipMatchesDraws(t, seed, pre, n)
			}
		}
		for n := int64(0); n <= 1300; n++ {
			skipMatchesDraws(t, seed, 0, n)
		}
	}
}

// lazyEdges returns the draw counts at which the lazily built first block
// changes state: every chunk edge ±1, the ends of the three ranges grow
// builds differently (273 and 334), and the block's end.
func lazyEdges() []int {
	var edges []int
	for e := 0; e <= rngLen+seedChunk; e += seedChunk {
		edges = append(edges, max(e-1, 0), e, e+1)
	}
	edges = append(edges, rngTap-1, rngTap, rngLen-rngTap-1, rngLen-rngTap, rngLen-1, rngLen)
	slices.Sort(edges)
	return slices.Compact(edges)
}

func FuzzSource(f *testing.F) {
	for _, seed := range sourceSeeds {
		f.Add(seed, uint16(0), uint16(0))
		f.Add(seed, uint16(1), uint16(rngLen))
		f.Add(seed, uint16(rngTap), uint16(seedChunk))
		f.Add(seed, uint16(rngLen), uint16(1))
	}
	f.Fuzz(func(t *testing.T, seed int64, pre, n uint16) {
		skipMatchesDraws(t, seed, int(pre%(2*rngLen)), int64(n))
	})
}

func TestRoundRobinIntnMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds {
		got, want := NewRoundRobin(2, seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 3*rngLen; i++ {
			n := 1 + i%11
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, math/rand = %d", seed, i, n, g, w)
			}
		}
	}
}

// TestPCTMatchesMathRand rebuilds PCT's change points and priorities with
// the math/rand calls NewPCT and Pick made before the port. The change
// points are a sorted, duplicate-free slice; the set must be math/rand's.
func TestPCTMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds {
		const d, maxSteps = 6, 5000
		p := NewPCT(seed, d, maxSteps)
		rng := rand.New(rand.NewSource(seed))
		change := map[int64]bool{}
		for i := 0; i < d-1; i++ {
			change[rng.Int63n(maxSteps)] = true
		}
		if len(change) != len(p.change) {
			t.Fatalf("seed %d: %d change points, math/rand gives %d", seed, len(p.change), len(change))
		}
		for step := range change {
			if _, ok := slices.BinarySearch(p.change, step); !ok {
				t.Fatalf("seed %d: change point %d missing", seed, step)
			}
		}
		if !slices.IsSorted(p.change) || len(p.fired) != len(p.change) || slices.Contains(p.fired, true) {
			t.Fatalf("seed %d: change points %v (fired %v) not sorted and unfired", seed, p.change, p.fired)
		}
		// First sight of each thread draws its priority, in runnable order.
		p.Pick([]int{0, 1, 2, 3}, -1)
		for tid := 0; tid < 4; tid++ {
			if w := rng.Intn(1 << 16); p.prio[tid] != w {
				t.Fatalf("seed %d: priority of thread %d = %d, math/rand gives %d", seed, tid, p.prio[tid], w)
			}
		}
		if g, w := p.Intn(1000), rng.Intn(1000); g != w {
			t.Fatalf("seed %d: Intn(1000) = %d, math/rand gives %d", seed, g, w)
		}
	}
}

// TestNewRandomAllocs pins NewRandom to one allocation: the source lives
// inside the Random.
func TestNewRandomAllocs(t *testing.T) {
	var sink *Random
	if a := testing.AllocsPerRun(100, func() { sink = NewRandom(7) }); a != 1 {
		t.Fatalf("NewRandom allocates %v times per call, want 1", a)
	}
	_ = sink
}

// TestNewSearchPCTAllocs pins NewSearchPCT to four allocations: the PCT
// with its source, two for the change points and one for their fired
// flags.
func TestNewSearchPCTAllocs(t *testing.T) {
	var sink *PCT
	if a := testing.AllocsPerRun(100, func() { sink = NewSearchPCT(7) }); a != 4 {
		t.Fatalf("NewSearchPCT allocates %v times per call, want 4", a)
	}
	_ = sink
}

func BenchmarkNewRandom(b *testing.B) {
	b.ReportAllocs()
	var sink *Random
	for i := 0; i < b.N; i++ {
		sink = NewRandom(int64(i))
	}
	_ = sink
}

// BenchmarkNewSearchPCT builds the sanitizer search's PCT scheduler: a
// seed and its two change-point draws.
func BenchmarkNewSearchPCT(b *testing.B) {
	b.ReportAllocs()
	var sink *PCT
	for i := 0; i < b.N; i++ {
		sink = NewSearchPCT(int64(i))
	}
	_ = sink
}

// BenchmarkSeed compares seeding plus the first draw, and seeding plus a
// whole first block — drawn, or skipped up to its last draw as a
// one-thread quantum would — for the package-local source (lazy Mersenne
// seeding) and math/rand (Schrage seeding of the whole register), which
// draws where source skips.
func BenchmarkSeed(b *testing.B) {
	for _, c := range []struct {
		name        string
		skip, draws int
	}{{"first-draw", 0, 1}, {"full-block", 0, rngLen}, {"skipped-block", rngLen - 1, 1}} {
		b.Run(c.name+"/source", func(b *testing.B) {
			var s source
			for i := 0; i < b.N; i++ {
				s.seed(int64(i))
				s.Skip(int64(c.skip))
				for j := 0; j < c.draws; j++ {
					s.Int63()
				}
			}
		})
		b.Run(c.name+"/math-rand", func(b *testing.B) {
			s := rand.NewSource(0)
			for i := 0; i < b.N; i++ {
				s.Seed(int64(i))
				for j := 0; j < c.skip+c.draws; j++ {
					s.Int63()
				}
			}
		})
	}
}
