package mdp

// On-the-fly state-space generation: Explore walks a probabilistic
// automaton frontier by frontier and emits the CSR transition structure
// directly. It is the package's only automaton-to-MDP builder. Callers
// with large models pair it with a fixed-width packed state encoding
// (ExplorePacked) so the interning map keys are a few machine words — the
// same trick the Monte Carlo engine's compiled cache plays — and pass a
// sim.Compile'd model into sched.Product so every Steps call during
// exploration hits the simulator's 64-way-sharded transition cache
// instead of re-deriving moves the trial engine already knows.
//
// Determinism. Exploration is parallel but the state numbering is not a
// function of scheduling: each BFS level's successor sets are computed by
// workers on contiguous frontier chunks, then interned by a single
// sequential merge that scans the per-state results in frontier order.
// The numbering is therefore exactly the breadth-first discovery order of
// pa.Automaton.Reachable, and the CSR arrays are exactly those of a dense
// per-state enumeration over that order — what the dense-oracle equality
// tests pin. Steps may be called from several goroutines at once, so it
// must be safe for concurrent use (pure functions of the state are).

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/pa"
)

// ErrMemBudget is the sentinel wrapped by BudgetError: exploration was
// abandoned because the transition structure outgrew the caller's byte
// budget.
var ErrMemBudget = errors.New("mdp: exploration exceeded the memory budget")

// BudgetError reports a blown exploration budget with the sizes reached.
type BudgetError struct {
	// States and Bytes are the exploration's footprint when it stopped;
	// Budget is the configured bound.
	States int
	Bytes  int64
	Budget int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("%v: %d states, %d bytes > budget %d", ErrMemBudget, e.States, e.Bytes, e.Budget)
}

// Unwrap makes errors.Is(err, ErrMemBudget) hold.
func (e *BudgetError) Unwrap() error { return ErrMemBudget }

// ExploreOptions configures on-the-fly exploration.
type ExploreOptions struct {
	// Workers sets the exploration and solver parallelism: 0 means one
	// worker per available CPU. Any value yields the identical MDP.
	Workers int
	// MemBudget bounds (approximately) the resident bytes of the interned
	// states plus the CSR under construction; exploration past the bound
	// fails with a *BudgetError. <= 0 means unlimited.
	MemBudget int64
	// Limit bounds the number of states, with pa.Automaton.Reachable's
	// limit convention; exploration past it fails with
	// pa.ErrLimitExceeded. <= 0 means unlimited.
	Limit int
}

// Explore builds the MDP of auto's reachable space on the fly, interning
// states by their own (comparable) value. Actions of duration one become
// tick choices, duration zero ordinary choices; any other duration fails
// with ErrBadDuration. State numbering equals pa.Reachable discovery
// order.
func Explore[S comparable](auto *pa.Automaton[S], opts ExploreOptions) (*MDP, *Index[S], error) {
	return ExplorePacked(auto, func(s S) S { return s }, opts)
}

// ExplorePacked is Explore interning states by pack(s) instead of s
// itself. pack must be injective on the reachable states (the
// sched.Packer contract); fixed-width keys keep the interning map's
// hashing and equality to a few machine-word operations, which is where
// exploration time goes at millions of states.
func ExplorePacked[S comparable, K comparable](auto *pa.Automaton[S], pack func(S) K, opts ExploreOptions) (*MDP, *Index[S], error) {
	workers := resolveWorkers(opts.Workers)

	// tickOf memoizes DurationOf per action label, validating the
	// unit-duration convention once per label instead of once per choice.
	tickCache := make(map[string]bool)
	tickOf := func(action string) (bool, error) {
		if t, ok := tickCache[action]; ok {
			return t, nil
		}
		d := auto.DurationOf(action)
		var tick bool
		switch {
		case d.IsZero():
			tick = false
		case d.IsOne():
			tick = true
		default:
			return false, fmt.Errorf("%w: action %q has duration %v", ErrBadDuration, action, d)
		}
		tickCache[action] = tick
		return tick, nil
	}

	var (
		states []S
		ids    = make(map[K]int32)
		b      = newCSRBuilder(0, 0, 0)
	)
	intern := func(s S) int32 {
		k := pack(s)
		if id, ok := ids[k]; ok {
			return id
		}
		id := int32(len(states))
		ids[k] = id
		states = append(states, s)
		return id
	}
	for _, s := range auto.Start {
		intern(s)
	}

	// perState collects one frontier state's outgoing steps as computed by
	// the parallel phase; successor states are raw S values interned later
	// by the sequential merge.
	type perState struct {
		steps []pa.Step[S]
	}

	// Per-state key/pointer cost of the interning structures, for the
	// budget: the states slice entry, the map key+value, and amortized map
	// overhead (buckets, top-hash bytes — ~3/2 slots per entry at worst).
	var zeroS S
	var zeroK K
	perStateBytes := int64(unsafe.Sizeof(zeroS)) + (3*(int64(unsafe.Sizeof(zeroK))+4))/2

	results := make([]perState, 0, 1024)
	for lo := 0; lo < len(states); {
		hi := len(states) // this BFS level: everything discovered, not yet expanded
		frontier := states[lo:hi]
		if cap(results) < len(frontier) {
			results = make([]perState, len(frontier))
		}
		results = results[:len(frontier)]

		// Parallel phase: compute each frontier state's steps. Workers own
		// contiguous chunks and write only their own rows.
		parallelFor(workers, len(frontier), func(w, a, c int) {
			for i := a; i < c; i++ {
				results[i] = perState{steps: auto.Steps(frontier[i])}
			}
		})

		// Sequential merge: intern successors in frontier order — the BFS
		// discovery order — and append the CSR rows.
		for _, r := range results {
			b.startState()
			for _, step := range r.steps {
				tick, err := tickOf(step.Action)
				if err != nil {
					return nil, nil, err
				}
				b.addChoice(step.Action, tick)
				for _, o := range step.Next.Outcomes() {
					if opts.Limit > 0 && len(states) >= opts.Limit {
						if _, seen := ids[pack(o.Value)]; !seen {
							return nil, nil, fmt.Errorf("%w: more than %d states", pa.ErrLimitExceeded, opts.Limit)
						}
					}
					b.addBranch(intern(o.Value), o.Prob)
				}
			}
		}
		lo = hi

		if opts.MemBudget > 0 {
			bytes := b.footprint() + int64(len(states))*perStateBytes
			if bytes > opts.MemBudget {
				return nil, nil, &BudgetError{States: len(states), Bytes: bytes, Budget: opts.MemBudget}
			}
		}
	}

	// States discovered but never expanded cannot exist: the loop runs
	// until the frontier is empty, so every interned state got its CSR row.
	csr := b.finish()
	m := &MDP{NumStates: len(states), Workers: opts.Workers, csr: csr}
	ix := &Index[S]{states: states}
	return m, ix, nil
}

// footprint estimates the builder's resident bytes mid-construction, for
// the exploration budget, counted like the finished CSR's arrays (exact
// probabilities cost a 4-byte table index per branch plus the table).
func (b *csrBuilder) footprint() int64 {
	c := b.c
	return int64(cap(c.choiceRow))*4 +
		int64(cap(c.branchRow))*4 +
		int64(cap(c.labelID))*4 +
		int64(cap(c.tick))*8 +
		int64(cap(c.col))*4 +
		int64(cap(c.pf))*8 +
		int64(cap(c.pi))*4 +
		int64(cap(c.pt))*ratBytes
}
