package sim

// This file is the compiled-model layer: Compile wraps a purely
// functional sched.Model in a read-mostly transition cache so the Monte
// Carlo hot loop stops re-deriving what it has already seen.
//
// Two observations make it sound and fast:
//
//   - sched.Model implementations are documented purely functional:
//     Moves/UserMoves depend only on (state, proc). Their results can
//     therefore be interned per state and shared — across steps, across
//     trials, and across RunParallel workers — without changing any
//     run. A cheap purity spot-check guards the contract: a model whose
//     repeated queries disagree is passed through uncompiled.
//
//   - Each step's successor distribution is pre-resolved into a
//     cumulative-float64 scan (prob.Frozen) that replays Dist.Pick's
//     exact accumulation, so seeded runs are bit-identical compiled or
//     not, for any distribution.
//
// The cache is sharded by state hash (hash/maphash.Comparable) with one
// RWMutex per shard: steady state is a read-lock and a map hit, and
// distinct states contend only 1/compileShards of the time while the
// cache warms. Models that implement sched.Packer[S] are interned by
// their fixed-width packed encoding instead of the state struct itself,
// which keeps the map keys to a few machine words (hashing and equality
// on a [4]uint64 instead of a larger struct). RunParallel compiles every
// model by default; the ParallelOptions.NoCompile escape hatch and the
// purity pass-through both fall back to the uncompiled engine, which
// remains fully supported (and is what RunOnce uses unless handed a
// compiled model).

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/pa"
	"repro/internal/prob"
	"repro/internal/sched"
)

// compileShards is the number of cache shards. A power of two so the
// hash folds with a mask; 64 keeps contention negligible for any
// realistic worker count while the cache warms.
const compileShards = 64

// maxCompiledStates bounds the total number of interned states. The
// case-study models have tiny reachable spaces (thousands of states),
// but a model with an effectively unbounded or non-self-identifying
// state type (e.g. NaN-bearing floats, which never compare equal to
// themselves) must not grow the cache without limit: past the cap,
// entries are computed per call and not retained.
const maxCompiledStates = 1 << 20

// stateEntry is the compiled form of one interned state: the memoized
// Moves/UserMoves of every process, their pre-resolved samplers, and the
// derived scheduling facts the engine needs every step. All fields are
// immutable after construction and shared read-only (including into
// policy Views — see the View doc).
type stateEntry[S comparable] struct {
	moves        [][]pa.Step[S]     // per proc; nil when not ready
	samplers     [][]moveSampler[S] // parallel to moves
	userMoves    [][]pa.Step[S]     // per proc; nil when no user moves
	userSamplers [][]moveSampler[S] // parallel to userMoves
	ready        []int              // procs with algorithm moves, ascending
	userMovers   []int              // procs with user moves, ascending
	moveCount    []int              // per proc; len(moves), 0 when not ready
	userCount    []int              // per proc; len(userMoves)
}

// moveSampler bundles everything the per-event hot path needs about one
// move into one contiguous struct — the frozen scan and the
// successor-entry cache — so applyChoice does a single indexed load
// instead of walking parallel slice-of-slice structures.
//
// succ caches, per support index, the interned entry of that
// outcome's successor state. The engine resolves a slot the first time
// a trial follows that outcome and every later traversal skips the
// shard lock and map probe entirely — in steady state the trial loop
// walks entry to entry through these pointers. The slots are atomic
// because entries are shared across workers; a racing double-resolve
// stores the same canonical entry (or, past the interning cap, an
// equivalent one), so last-write-wins is sound.
type moveSampler[S comparable] struct {
	frozen prob.Frozen[S]
	succ   []atomic.Pointer[stateEntry[S]]
}

type compileShard[S comparable] struct {
	mu      sync.RWMutex
	entries map[S]*stateEntry[S]
	// packed replaces entries when the model implements sched.Packer:
	// same interning, keyed by the fixed-width encoding.
	packed map[sched.Packed]*stateEntry[S]
}

// Compiled is the transition-cached form of a model returned by
// Compile. It implements sched.Model and can be used anywhere the
// original could; the engine additionally recognizes it and switches to
// entry-based fast paths (shared Views, frozen sampling).
type Compiled[S comparable] struct {
	inner sched.Model[S]
	n     int
	seed  maphash.Seed
	count atomic.Int64 // interned entries, for the maxCompiledStates cap
	// packer is non-nil when the inner model implements sched.Packer:
	// states are then interned by their packed encoding.
	packer func(S) sched.Packed

	shards [compileShards]compileShard[S]
}

var _ sched.Model[int] = (*Compiled[int])(nil)

// Compile wraps m in a concurrency-safe transition cache that interns
// states, memoizes Moves/UserMoves per state and pre-resolves every
// successor distribution into a float64 cumulative scan (prob.Frozen).
// The result is bit-identical to m for any seed and worker count, while
// the hot loop does no repeated model queries, no rational arithmetic and
// no per-draw map lookups. Models that implement sched.Packer[S] are
// interned by their fixed-width packed encoding, keeping cache keys to a
// few machine words.
//
// Compiling relies on the sched.Model contract that Moves/UserMoves are
// purely functional. Compile spot-checks the contract (repeated queries
// on a sample of states must agree) and returns m unchanged when the
// check fails or panics, so impure or misbehaving models keep their
// uncompiled semantics. Compiling an already compiled model returns it
// unchanged; a nil model is returned as is (the engine rejects it with
// ErrInvalidArgument as usual).
//
// The cache is shared: passing one compiled model to many runs — the
// CLIs and benchmarks do — lets later runs start fully warm.
func Compile[S comparable](m sched.Model[S]) sched.Model[S] {
	if m == nil {
		return nil
	}
	if _, ok := m.(*Compiled[S]); ok {
		return m
	}
	if !spotCheckPure(m) {
		return m
	}
	c := &Compiled[S]{inner: m, n: m.NumProcs(), seed: maphash.MakeSeed()}
	if pk, ok := m.(sched.Packer[S]); ok {
		c.packer = pk.PackState
		for i := range c.shards {
			c.shards[i].packed = make(map[sched.Packed]*stateEntry[S])
		}
		return c
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[S]*stateEntry[S])
	}
	return c
}

// Name implements sched.Model.
func (c *Compiled[S]) Name() string { return c.inner.Name() }

// NumProcs implements sched.Model.
func (c *Compiled[S]) NumProcs() int { return c.n }

// Start implements sched.Model.
func (c *Compiled[S]) Start() []S { return c.inner.Start() }

// Moves implements sched.Model by serving the memoized steps. The
// returned slice is cached and shared; callers must not modify it (the
// same rule the inner model's documentation of purity implies).
func (c *Compiled[S]) Moves(s S, i int) []pa.Step[S] {
	if i < 0 || i >= c.n {
		// Out-of-range procs are the inner model's business (typically a
		// panic); the cache only ever holds 0..n-1.
		return c.inner.Moves(s, i)
	}
	return c.entry(s).moves[i]
}

// UserMoves implements sched.Model by serving the memoized steps; the
// same sharing rule as Moves applies.
func (c *Compiled[S]) UserMoves(s S, i int) []pa.Step[S] {
	if i < 0 || i >= c.n {
		return c.inner.UserMoves(s, i)
	}
	return c.entry(s).userMoves[i]
}

// entry returns the compiled entry for s, interning it on first sight.
// The double-checked insert keeps exactly one canonical entry per state
// even when two workers race to compile it.
func (c *Compiled[S]) entry(s S) *stateEntry[S] {
	if c.packer != nil {
		return c.entryPacked(c.packer(s), s)
	}
	sh := &c.shards[maphash.Comparable(c.seed, s)&(compileShards-1)]
	sh.mu.RLock()
	e := sh.entries[s]
	sh.mu.RUnlock()
	if e != nil {
		return e
	}
	e = c.compileState(s)
	sh.mu.Lock()
	if prev, ok := sh.entries[s]; ok {
		sh.mu.Unlock()
		return prev
	}
	if c.count.Load() < maxCompiledStates {
		sh.entries[s] = e
		c.count.Add(1)
	}
	sh.mu.Unlock()
	return e
}

// entryPacked is entry for models with a sched.Packer: the cache is
// keyed by the packed encoding of s. Soundness is the packer's
// injectivity contract — two states with equal encodings must be equal —
// pinned by the trajectory-walk tests next to each Packer.
func (c *Compiled[S]) entryPacked(k sched.Packed, s S) *stateEntry[S] {
	sh := &c.shards[maphash.Comparable(c.seed, k)&(compileShards-1)]
	sh.mu.RLock()
	e := sh.packed[k]
	sh.mu.RUnlock()
	if e != nil {
		return e
	}
	e = c.compileState(s)
	sh.mu.Lock()
	if prev, ok := sh.packed[k]; ok {
		sh.mu.Unlock()
		return prev
	}
	if c.count.Load() < maxCompiledStates {
		sh.packed[k] = e
		c.count.Add(1)
	}
	sh.mu.Unlock()
	return e
}

// compileState queries the inner model once per process and derives the
// per-state facts the engine otherwise recomputes every step.
func (c *Compiled[S]) compileState(s S) *stateEntry[S] {
	e := &stateEntry[S]{
		moves:        make([][]pa.Step[S], c.n),
		samplers:     make([][]moveSampler[S], c.n),
		userMoves:    make([][]pa.Step[S], c.n),
		userSamplers: make([][]moveSampler[S], c.n),
		moveCount:    make([]int, c.n),
		userCount:    make([]int, c.n),
	}
	for i := 0; i < c.n; i++ {
		moves := c.inner.Moves(s, i)
		e.moves[i] = moves
		e.moveCount[i] = len(moves)
		if len(moves) > 0 {
			e.ready = append(e.ready, i)
			e.samplers[i] = compileSamplers(moves)
		}
		user := c.inner.UserMoves(s, i)
		e.userMoves[i] = user
		e.userCount[i] = len(user)
		if len(user) > 0 {
			e.userMovers = append(e.userMovers, i)
			e.userSamplers[i] = compileSamplers(user)
		}
	}
	return e
}

// compileSamplers pre-resolves one process's moves into their hot-path
// sampler bundles.
func compileSamplers[S comparable](moves []pa.Step[S]) []moveSampler[S] {
	ms := make([]moveSampler[S], len(moves))
	for j := range moves {
		ms[j].frozen = prob.Freeze(moves[j].Next)
		ms[j].succ = make([]atomic.Pointer[stateEntry[S]], ms[j].frozen.Len())
	}
	return ms
}

// spotCheckSample caps how many states the purity spot-check probes:
// the start states plus one successor layer, up to this many.
const spotCheckSample = 32

// spotCheckPure probes the sched.Model purity contract: Moves and
// UserMoves queried twice for the same (state, proc) must agree, over
// the start states and one layer of their successors. It is a spot
// check, not a proof — a model that defeats it violates its documented
// contract — and any panic during probing counts as a failure, so
// Compile passes such models through and their panics surface inside
// trials (quarantined per ParallelOptions.MaxPanics) exactly as they
// would uncompiled.
func spotCheckPure[S comparable](m sched.Model[S]) (pure bool) {
	defer func() {
		if recover() != nil {
			pure = false
		}
	}()
	n := m.NumProcs()
	sample := append([]S(nil), m.Start()...)
	seen := make(map[S]bool, len(sample))
	for _, s := range sample {
		seen[s] = true
	}
	for _, s := range m.Start() {
		if len(sample) >= spotCheckSample {
			break
		}
		for i := 0; i < n && len(sample) < spotCheckSample; i++ {
			for _, st := range m.Moves(s, i) {
				for _, next := range st.Next.Support() {
					if !seen[next] && len(sample) < spotCheckSample {
						seen[next] = true
						sample = append(sample, next)
					}
				}
			}
		}
	}
	for _, s := range sample {
		for i := 0; i < n; i++ {
			if !stepsEqual(m.Moves(s, i), m.Moves(s, i)) {
				return false
			}
			if !stepsEqual(m.UserMoves(s, i), m.UserMoves(s, i)) {
				return false
			}
		}
	}
	return true
}

// stepsEqual reports whether two Moves/UserMoves results are
// interchangeable for the engine: same length and order, same actions,
// and successor distributions with identical supports (in order) and
// exactly equal probabilities.
func stepsEqual[S comparable](a, b []pa.Step[S]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Action != b[i].Action {
			return false
		}
		sa, sb := a[i].Next.Support(), b[i].Next.Support()
		if len(sa) != len(sb) {
			return false
		}
		for j := range sa {
			if sa[j] != sb[j] {
				return false
			}
		}
		if !a[i].Next.Equal(b[i].Next) {
			return false
		}
	}
	return true
}
