package sim

// Checkpoint/resume for the parallel Monte Carlo engine.
//
// The parallel engine already merges fixed-size chunk accumulators in
// chunk order, and every trial's RNG is a pure function of (root seed,
// trial index). A checkpoint therefore only needs the serialized
// accumulators of the chunks that completed: a resumed run restores them,
// re-runs only the missing chunks (whose trials regenerate the exact same
// coin flips), and merges everything in the same order — so an
// interrupted-and-resumed run is bit-identical to an uninterrupted one,
// for any worker count on either side of the interruption.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// ErrCheckpointMismatch reports a resume token that does not belong to the
// run being started (different seed, trial budget, chunk size, estimator
// kind, or format version). Resuming such a token would silently corrupt
// the estimate, so the engine refuses.
var ErrCheckpointMismatch = errors.New("sim: checkpoint does not match this run")

// MismatchError is a checkpoint-identity mismatch with the offending
// field named and both values carried, so an operator can see at a glance
// whether they mistyped a seed or pointed -resume at the wrong run. It
// matches ErrCheckpointMismatch via errors.Is.
type MismatchError struct {
	// Field is the run parameter that disagrees: "version", "kind",
	// "seed", "trials", or "chunk_size".
	Field string
	// Want is the value the run being started expects.
	Want any
	// Got is the value found in the checkpoint.
	Got any
}

// Error names the field and both values.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("sim: checkpoint does not match this run: %s is %v, want %v", e.Field, e.Got, e.Want)
}

// Is reports a match against ErrCheckpointMismatch.
func (e *MismatchError) Is(target error) bool { return target == ErrCheckpointMismatch }

// ChunkRecord is the serialized accumulator of one completed chunk.
type ChunkRecord struct {
	// Index is the chunk index (trials [Index*chunkSize, ...)).
	Index int `json:"index"`
	// Acc is the chunk accumulator, marshaled by encoding/json.
	Acc json.RawMessage `json:"acc"`
}

// RecordStalled marks a PanicRecord produced by the per-trial watchdog
// (a stuck trial) rather than a recovered panic.
const RecordStalled = "stall"

// PanicRecord is the serializable form of a quarantined trial — a
// recovered TrialPanicError, or a TrialStalledError from the watchdog:
// enough to reproduce the crash or hang (trial index + trial seed)
// without keeping the live panic value alive.
type PanicRecord struct {
	Trial int    `json:"trial"`
	Seed  int64  `json:"seed"`
	Value string `json:"value"`
	Stack string `json:"stack,omitempty"`
	// Kind distinguishes how the trial died: empty for a panic,
	// RecordStalled for a watchdog timeout.
	Kind string `json:"kind,omitempty"`
}

// Checkpoint is a resume token for one parallel estimator run: the
// identity of the run (seed, budget, chunking, estimator kind) plus the
// accumulators of every chunk completed so far and the panics quarantined
// so far. It marshals to a stable, human-inspectable JSON document.
type Checkpoint struct {
	Version   int    `json:"version"`
	Kind      string `json:"kind,omitempty"`
	Seed      int64  `json:"seed"`
	Trials    int    `json:"trials"`
	ChunkSize int    `json:"chunk_size"`
	// Chunks holds one record per completed chunk, sorted by index.
	Chunks []ChunkRecord `json:"chunks"`
	// Panics lists the quarantined trials, sorted by trial index; they
	// count against the quarantine budget of a resumed run.
	Panics []PanicRecord `json:"panics,omitempty"`
}

// Done reports how many of the requested trials are covered by completed
// chunks (including any quarantined trials inside them).
func (c *Checkpoint) Done() int {
	done := 0
	for _, cr := range c.Chunks {
		done += c.chunkLen(cr.Index)
	}
	return done
}

// Complete reports whether every chunk of the run is recorded.
func (c *Checkpoint) Complete() bool { return c.Done() >= c.Trials }

func (c *Checkpoint) numChunks() int {
	return (c.Trials + c.ChunkSize - 1) / c.ChunkSize
}

// chunkLen is the number of trials in chunk i (the last chunk is ragged).
func (c *Checkpoint) chunkLen(i int) int {
	lo := i * c.ChunkSize
	hi := min(lo+c.ChunkSize, c.Trials)
	return hi - lo
}

// sortRecords orders chunk and panic records canonically so the marshaled
// form is independent of the completion order of a particular run.
func (c *Checkpoint) sortRecords() {
	sort.Slice(c.Chunks, func(i, j int) bool { return c.Chunks[i].Index < c.Chunks[j].Index })
	sort.Slice(c.Panics, func(i, j int) bool { return c.Panics[i].Trial < c.Panics[j].Trial })
}

// validateFor checks that the token belongs to a run with the given
// parameters and that its records are well formed.
func (c *Checkpoint) validateFor(kind string, seed int64, trials, chunkSize int) error {
	switch {
	case c.Version != checkpointVersion:
		return &MismatchError{Field: "version", Want: checkpointVersion, Got: c.Version}
	case c.Kind != kind:
		return &MismatchError{Field: "kind", Want: kind, Got: c.Kind}
	case c.Seed != seed:
		return &MismatchError{Field: "seed", Want: seed, Got: c.Seed}
	case c.Trials != trials:
		return &MismatchError{Field: "trials", Want: trials, Got: c.Trials}
	case c.ChunkSize != chunkSize:
		return &MismatchError{Field: "chunk_size", Want: chunkSize, Got: c.ChunkSize}
	}
	seen := make(map[int]bool, len(c.Chunks))
	for _, cr := range c.Chunks {
		if cr.Index < 0 || cr.Index >= c.numChunks() {
			return fmt.Errorf("%w: chunk index %d outside [0, %d)", ErrCheckpointMismatch, cr.Index, c.numChunks())
		}
		if seen[cr.Index] {
			return fmt.Errorf("%w: duplicate chunk index %d", ErrCheckpointMismatch, cr.Index)
		}
		seen[cr.Index] = true
	}
	for _, pr := range c.Panics {
		if pr.Trial < 0 || pr.Trial >= c.Trials {
			return fmt.Errorf("%w: quarantined trial %d outside [0, %d)", ErrCheckpointMismatch, pr.Trial, c.Trials)
		}
	}
	return nil
}

// CheckpointSet maps a caller-chosen stage label to its checkpoint — the
// on-disk unit used by the CLIs, which run several estimator stages
// (sizes × policies × estimators) against one state file.
type CheckpointSet map[string]*Checkpoint
