// Package sim is the Monte Carlo counterpart of the exact checker: it runs
// a multi-process model (sched.Model) in dense time under programmable
// Unit-Time adversaries and estimates reach probabilities and expected
// times.
//
// The engine enforces exactly the Unit-Time schema of Section 6.2 of the
// paper: every process that is ready (enables an algorithm move) must step
// within time 1 of becoming ready, time diverges, and the adversary — here
// called a Policy — freely chooses interleavings, exact step times and the
// resolution of nondeterministic branches, with complete knowledge of the
// run so far, including past coin flips. Unlike the digitized checker, the
// simulator does not quantize step times, so it explores the paper's
// adversary class directly (one policy at a time).
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/pa"
	"repro/internal/sched"
)

// View is what a policy sees when asked for its next choice: the current
// state, the clock, the scheduling obligations, and the moves available.
//
// The slices of a View are owned by the engine and must not be modified:
// under an uncompiled model they are reused between steps (the hot loop
// would otherwise spend most of its time allocating them), and under a
// compiled model (Compile) they are cache entries shared across trials
// and workers. Either way they are valid only for the duration of the
// Choose call, and a policy must copy anything it wants to retain.
type View[S comparable] struct {
	// State is the current algorithm state.
	State S
	// Now is the current time.
	Now float64
	// DeadlineMin is the latest time the next step may happen: the
	// earliest unit-time deadline among ready processes (+Inf if none).
	DeadlineMin float64
	// Ready lists processes with algorithm moves, ascending.
	Ready []int
	// Deadline holds each process's unit-time deadline, indexed by
	// process; a process that is not ready holds +Inf (no obligation).
	Deadline []float64
	// MoveCount holds each process's number of algorithm moves
	// (nondeterministic branches the policy may pick among), indexed by
	// process; zero when the process is not ready.
	MoveCount []int
	// UserMovers lists processes with user moves available, ascending.
	UserMovers []int
	// UserMoveCount holds each process's number of user moves, indexed
	// by process; zero when the process has none.
	UserMoveCount []int
}

// Choice is a policy decision: process Proc performs its Move-th algorithm
// move (or user move when User is set) at time At.
type Choice struct {
	Proc int
	Move int
	User bool
	// At is the time of the step; the engine requires Now <= At <=
	// DeadlineMin.
	At float64
}

// Policy resolves the nondeterminism of a run: it is the operational form
// of an adversary with complete knowledge of the past. Returning ok =
// false ends the run; the engine rejects that while any process is ready,
// since deserting a ready process violates Unit-Time.
type Policy[S comparable] interface {
	Choose(v *View[S], rng *rand.Rand) (c Choice, ok bool)
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc[S comparable] func(v *View[S], rng *rand.Rand) (Choice, bool)

// Choose implements Policy.
func (f PolicyFunc[S]) Choose(v *View[S], rng *rand.Rand) (Choice, bool) { return f(v, rng) }

var _ Policy[int] = (PolicyFunc[int])(nil)

// Options configures a run.
type Options[S comparable] struct {
	// Start overrides the model's start state when Set is true.
	Start    S
	SetStart bool
	// MaxEvents bounds the number of steps (default 100000).
	MaxEvents int
	// MaxTime bounds the clock (default 1000). The bound is inclusive: a
	// step scheduled at a time <= MaxTime is applied and may reach the
	// target; a step scheduled strictly after MaxTime is never applied —
	// the run is truncated at the bound with Reached reflecting only what
	// happened by MaxTime.
	MaxTime float64
	// Observer, when non-nil, is called after every applied step with the
	// step time, acting process, action name and resulting state — the
	// hook used by the trace recorder.
	Observer func(t float64, proc int, action string, next S)
}

func (o Options[S]) withDefaults() Options[S] {
	if o.MaxEvents <= 0 {
		o.MaxEvents = 100000
	}
	if o.MaxTime <= 0 {
		o.MaxTime = 1000
	}
	return o
}

// Result reports one run.
type Result[S comparable] struct {
	// Reached reports whether the target was hit; ReachedAt is the time.
	Reached   bool
	ReachedAt float64
	// Events is the number of steps taken.
	Events int
	// Final is the last state.
	Final S
}

// Errors returned by the engine.
var (
	ErrPolicyDeserted = errors.New("sim: policy halted while a process was ready (violates Unit-Time)")
	ErrBadChoice      = errors.New("sim: policy returned an invalid choice")
	// ErrBadModel reports a model that handed the engine an invalid step —
	// today, a step whose successor distribution is empty (the zero
	// prob.Dist in a hand-built pa.Step). The engine detects it before
	// sampling, so the run fails with a typed, wrappable error instead of
	// a quarantined Pick panic.
	ErrBadModel = errors.New("sim: model returned an invalid step")
	// ErrInvalidArgument reports a malformed call (nil model, policy,
	// policy factory, target or RNG, a non-positive trial budget, or a NaN
	// time bound): the engine rejects it up front with a clear error
	// instead of panicking deep inside a run or quietly answering for a
	// bound no step can meet.
	ErrInvalidArgument = errors.New("sim: invalid argument")
)

// RunOnce executes one run of the model under the policy until the target
// predicate holds, the policy stops in a quiescent state, or a budget is
// exhausted.
//
// RunOnce never propagates a panic from the policy, the model, the target
// predicate or the observer: a panic is recovered into a *TrialPanicError
// (with the partial Result accumulated so far), so a single crashing trial
// is an error the caller can quarantine, not a process abort.
func RunOnce[S comparable](m sched.Model[S], p Policy[S], target func(S) bool, opts Options[S], rng *rand.Rand) (res Result[S], err error) {
	if m == nil {
		return Result[S]{}, fmt.Errorf("%w: nil model", ErrInvalidArgument)
	}
	if p == nil {
		return Result[S]{}, fmt.Errorf("%w: nil policy", ErrInvalidArgument)
	}
	if target == nil {
		return Result[S]{}, fmt.Errorf("%w: nil target predicate", ErrInvalidArgument)
	}
	if rng == nil {
		return Result[S]{}, fmt.Errorf("%w: nil RNG", ErrInvalidArgument)
	}
	if math.IsNaN(opts.MaxTime) {
		return Result[S]{}, fmt.Errorf("%w: MaxTime is NaN", ErrInvalidArgument)
	}
	defer recoverTrialPanic(&err)
	err = runTrial(newViewScratch[S](m), p, target, opts.withDefaults(), rng, &res)
	return res, err
}

// runTrial is the trial loop shared by RunOnce and the parallel arena
// path. It does no argument validation and no panic recovery — callers
// do both — and writes its progress through res so a recovered panic
// still sees the partial Result. The scratch may be reused across
// trials: runTrial resets it, and opts must already carry defaults.
func runTrial[S comparable](sc *viewScratch[S], p Policy[S], target func(S) bool, opts Options[S], rng *rand.Rand, res *Result[S]) error {
	sc.reset()
	state := opts.Start
	if !opts.SetStart {
		if !sc.haveStart {
			sc.start = sc.m.Start()[0]
			sc.haveStart = true
		}
		state = sc.start
	}
	now := 0.0

	*res = Result[S]{Final: state}
	if target(state) {
		res.Reached = true
		res.ReachedAt = 0
		return nil
	}

	for res.Events < opts.MaxEvents && now <= opts.MaxTime {
		view := sc.build(state, now)
		choice, ok := p.Choose(view, rng)
		if !ok {
			if len(view.Ready) > 0 {
				return ErrPolicyDeserted
			}
			res.Final = state
			return nil
		}
		next, t, err := applyChoice(view.Now, view.DeadlineMin, choice, sc, rng)
		if err != nil {
			return err
		}
		if t > opts.MaxTime {
			// The policy's (otherwise legal) step falls past the clock
			// bound: truncate the run at MaxTime without applying it, so a
			// late step can never be counted as Reached. Validation above
			// still runs first — an invalid choice past the bound is an
			// error, not a quiet truncation.
			return nil
		}
		res.Events++
		if opts.Observer != nil {
			opts.Observer(t, choice.Proc, sc.action(choice), next)
		}
		// The stepping process gives up its deadline; the next build
		// assigns fresh deadlines t+1 to it and to newly ready processes,
		// clears processes no longer ready, and keeps everyone else's
		// older (tighter) deadline.
		sc.deadline[choice.Proc] = math.Inf(1)
		now = t
		state = next
		res.Final = state
		if target(state) {
			res.Reached = true
			res.ReachedAt = now
			return nil
		}
	}
	return nil
}

// viewScratch holds one run's view buffers and move caches. The engine
// reuses them across steps, so the hot loop's only steady-state
// allocations are the ones the model makes inside Moves/UserMoves — and
// under a compiled model (cm non-nil) not even those: build serves the
// shared cache entry of the current state instead of querying the model.
type viewScratch[S comparable] struct {
	m sched.Model[S]
	// n is m.NumProcs(), hoisted once per run: the per-step loop and
	// every choice validation would otherwise call through the interface
	// on each iteration.
	n int
	// cm is non-nil when m is a compiled model; cur is the cache entry
	// of the state the last build saw, consumed by applyChoice.
	cm  *Compiled[S]
	cur *stateEntry[S]
	// pending is the cache entry of the successor applyChoice just drew,
	// resolved through the entry's succ pointers; the next buildCompiled
	// (always of that same state) consumes it instead of re-hashing the
	// state into the shard maps.
	pending *stateEntry[S]
	// start memoizes m.Start()[0] after the first trial that needs it
	// (models are purely functional, so the start state is a constant):
	// an arena worker would otherwise pay Start's slice allocation on
	// every one of its trials.
	start     S
	haveStart bool
	// view is the View build assembles in place each step; handing the
	// policy a copy of one persistent struct (instead of returning a
	// fresh ~200-byte View up the stack) keeps a measurable slice of the
	// per-event budget.
	view View[S]
	// deadline persists across steps and doubles as the View's Deadline
	// slice: deadline[i] is process i's unit-time obligation (latest
	// legal step time), +Inf while process i is not ready.
	deadline []float64
	// The remaining fields are used only on the uncompiled path (the
	// compiled path shares its cache entry's slices instead).
	ready      []int
	userMovers []int
	moveCount  []int
	userCount  []int
	moves      [][]pa.Step[S]
	userMoves  [][]pa.Step[S]
}

func newViewScratch[S comparable](m sched.Model[S]) *viewScratch[S] {
	n := m.NumProcs()
	sc := &viewScratch[S]{
		m:        m,
		n:        n,
		deadline: make([]float64, n),
	}
	sc.reset()
	if cm, ok := m.(*Compiled[S]); ok {
		sc.cm = cm
		return sc
	}
	sc.moveCount = make([]int, n)
	sc.userCount = make([]int, n)
	sc.moves = make([][]pa.Step[S], n)
	sc.userMoves = make([][]pa.Step[S], n)
	return sc
}

// reset clears the per-trial state — every scheduling obligation and the
// cached compiled entry — so one scratch can serve many trials (the
// parallel arena path) without carrying state across them.
func (sc *viewScratch[S]) reset() {
	for i := range sc.deadline {
		sc.deadline[i] = math.Inf(1)
	}
	sc.cur = nil
	sc.pending = nil
}

// build refreshes the deadline bookkeeping for the current state in the
// same pass that assembles the policy's View, querying each process's
// moves exactly once per step (or not at all when the state is compiled).
func (sc *viewScratch[S]) build(s S, now float64) *View[S] {
	if sc.cm != nil {
		return sc.buildCompiled(s, now)
	}
	sc.ready = sc.ready[:0]
	sc.userMovers = sc.userMovers[:0]
	v := &sc.view
	*v = View[S]{
		State:         s,
		Now:           now,
		DeadlineMin:   math.Inf(1),
		Deadline:      sc.deadline,
		MoveCount:     sc.moveCount,
		UserMoveCount: sc.userCount,
	}
	for i := 0; i < sc.n; i++ {
		moves := sc.m.Moves(s, i)
		sc.moves[i] = moves
		sc.moveCount[i] = len(moves)
		if len(moves) == 0 {
			// A process that stopped being ready gives up its obligation.
			sc.deadline[i] = math.Inf(1)
		} else {
			d := sc.deadline[i]
			if math.IsInf(d, 1) {
				d = now + 1
				sc.deadline[i] = d
			}
			sc.ready = append(sc.ready, i)
			if d < v.DeadlineMin {
				v.DeadlineMin = d
			}
		}
		user := sc.m.UserMoves(s, i)
		sc.userMoves[i] = user
		sc.userCount[i] = len(user)
		if len(user) > 0 {
			sc.userMovers = append(sc.userMovers, i)
		}
	}
	v.Ready = sc.ready
	v.UserMovers = sc.userMovers
	return v
}

// buildCompiled assembles the View from the state's cache entry: the
// ready/userMovers/move-count slices are the entry's own (immutable,
// shared across trials and workers), and only the deadline bookkeeping —
// inherently per-run — is recomputed. The resulting View is
// field-for-field what the uncompiled build produces.
func (sc *viewScratch[S]) buildCompiled(s S, now float64) *View[S] {
	e := sc.pending
	sc.pending = nil
	if e == nil {
		e = sc.cm.entry(s)
	}
	sc.cur = e
	v := &sc.view
	*v = View[S]{
		State:         s,
		Now:           now,
		DeadlineMin:   math.Inf(1),
		Ready:         e.ready,
		Deadline:      sc.deadline,
		MoveCount:     e.moveCount,
		UserMovers:    e.userMovers,
		UserMoveCount: e.userCount,
	}
	for i := 0; i < sc.n; i++ {
		if e.moveCount[i] == 0 {
			// A process that stopped being ready gives up its obligation,
			// as in the uncompiled pass.
			sc.deadline[i] = math.Inf(1)
			continue
		}
		d := sc.deadline[i]
		if math.IsInf(d, 1) {
			d = now + 1
			sc.deadline[i] = d
		}
		if d < v.DeadlineMin {
			v.DeadlineMin = d
		}
	}
	return v
}

// applyChoice validates the policy's choice and draws the successor
// state. It deliberately does not return the step's action label: the
// hot loop has no use for it, and on the compiled path even loading the
// pa.Step (a string header plus a Dist) per event costs measurable
// throughput — runTrial fetches the label through sc.action only when
// an observer is attached, and error paths load it on demand.
func applyChoice[S comparable](now, deadlineMin float64, c Choice, sc *viewScratch[S], rng *rand.Rand) (S, float64, error) {
	var zero S
	// Validate the process index before consulting the move caches:
	// Moves / UserMoves implementations are entitled to index per-process
	// arrays, so an out-of-range index from a malicious policy must
	// become ErrBadChoice here, never a panic inside the model. The
	// unsigned compare folds the negative and too-large cases into one
	// branch, matching the compiler's own slice bounds-check idiom.
	if uint(c.Proc) >= uint(sc.n) {
		return zero, 0, fmt.Errorf("%w: proc %d move %d (user=%t)", ErrBadChoice, c.Proc, c.Move, c.User)
	}
	if e := sc.cur; e != nil {
		// Compiled path: the sampler bundles are parallel to the memoized
		// moves (nil when the process has none), so the move-index bound
		// and the empty-distribution probe read the same small structs the
		// draw is about to use — the pa.Step itself stays untouched.
		ms := e.samplers[c.Proc]
		if c.User {
			ms = e.userSamplers[c.Proc]
		}
		if uint(c.Move) >= uint(len(ms)) {
			return zero, 0, fmt.Errorf("%w: proc %d move %d (user=%t)", ErrBadChoice, c.Proc, c.Move, c.User)
		}
		t := c.At
		if t < now || t > deadlineMin {
			return zero, 0, fmt.Errorf("%w: time %v outside [%v, %v]", ErrBadChoice, t, now, deadlineMin)
		}
		m := &ms[c.Move]
		if m.frozen.Len() == 0 {
			return zero, 0, fmt.Errorf("%w: proc %d action %q has an empty successor distribution", ErrBadModel, c.Proc, sc.action(c))
		}
		idx := m.frozen.PickIndex(rng.Float64())
		next := m.frozen.At(idx)
		// Follow (or lazily resolve) the cached successor entry so the
		// next build skips the interning maps; see moveSampler.succ.
		slot := &m.succ[idx]
		ne := slot.Load()
		if ne == nil {
			ne = sc.cm.entry(next)
			slot.Store(ne)
		}
		sc.pending = ne
		return next, t, nil
	}
	moves := sc.moves[c.Proc]
	if c.User {
		moves = sc.userMoves[c.Proc]
	}
	if uint(c.Move) >= uint(len(moves)) {
		return zero, 0, fmt.Errorf("%w: proc %d move %d (user=%t)", ErrBadChoice, c.Proc, c.Move, c.User)
	}
	t := c.At
	if t < now || t > deadlineMin {
		return zero, 0, fmt.Errorf("%w: time %v outside [%v, %v]", ErrBadChoice, t, now, deadlineMin)
	}
	step := &moves[c.Move]
	// An empty successor distribution (the zero prob.Dist in a hand-built
	// step) would panic inside Pick; detect it before drawing so the run
	// fails with a typed error and — because the check precedes the draw
	// on every path — compiled and uncompiled runs consume identical
	// random streams.
	if step.Next.Len() == 0 {
		return zero, 0, fmt.Errorf("%w: proc %d action %q has an empty successor distribution", ErrBadModel, c.Proc, step.Action)
	}
	return step.Next.Pick(rng.Float64()), t, nil
}

// action returns the label of the step a validated choice names; callers
// must have bounds-checked c (applyChoice's cold paths and the observer
// hook in runTrial have).
func (sc *viewScratch[S]) action(c Choice) string {
	moves := sc.moves
	user := sc.userMoves
	if e := sc.cur; e != nil {
		moves, user = e.moves, e.userMoves
	}
	if c.User {
		return user[c.Proc][c.Move].Action
	}
	return moves[c.Proc][c.Move].Action
}
