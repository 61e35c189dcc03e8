package sim

// Fuzzing the artifact loader against hostile bytes: whatever is on disk
// where a checkpoint state file should be — truncated JSON, bit-flipped
// envelopes, checksum/payload disagreements, outright garbage —
// ArtifactStore.Load must return a typed error (wrapping
// fault.ErrCorruptArtifact for malformed content) or a valid set, and
// never panic. Run with
//
//	go test ./internal/sim -run='^$' -fuzz=FuzzLoadCheckpointSet
//
// (`make fuzz` wraps a short run); the seed corpus below also executes on
// every plain `go test`.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

func FuzzLoadCheckpointSet(f *testing.F) {
	// Seed corpus: a valid v2 envelope, a valid legacy v1 document, and
	// characteristic corruptions of each.
	var s ArtifactStore
	valid, err := s.encode(CheckpointSet{"stage": {
		Version: checkpointVersion, Kind: "hitting", Seed: 3, Trials: 128, ChunkSize: 64,
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                              // torn write
	f.Add([]byte(`{"stage":{"version":1,"seed":3}}`))                        // legacy v1
	f.Add([]byte(`{"artifact_version":2,"crc32c":"00000000","payload":{}}`)) // bad checksum
	f.Add([]byte(`{"artifact_version":99,"crc32c":"x","payload":{}}`))       // future version
	f.Add([]byte(`{"artifact_version":2}`))                                  // missing payload
	f.Add([]byte(``))                                                        // empty file
	f.Add([]byte(`not json at all`))                                         // garbage
	f.Add([]byte(`[1,2,3]`))                                                 // wrong JSON shape
	f.Add([]byte("\x00\xff\xfe\x01"))                                        // binary noise

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var store ArtifactStore
		cs, _, err := store.Load(path)
		if err != nil {
			// Malformed bytes must surface as the typed corruption error,
			// never a panic and never an untyped failure.
			if !errors.Is(err, fault.ErrCorruptArtifact) {
				t.Fatalf("ArtifactStore.Load error is not ErrCorruptArtifact: %v", err)
			}
			return
		}
		// A set that loads must round-trip: save it and load it back.
		out := filepath.Join(dir, "roundtrip.json")
		if err := store.Save(out, cs); err != nil {
			t.Fatalf("round-trip save of loaded set failed: %v", err)
		}
		if _, _, err := store.Load(out); err != nil {
			t.Fatalf("round-trip load failed: %v", err)
		}
	})
}
