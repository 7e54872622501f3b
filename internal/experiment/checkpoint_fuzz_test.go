package experiment

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzCheckpointLoad writes arbitrary bytes where a run's checkpoint
// file lives and resumes from it. Loading must never panic or fail the
// run (a corrupt or foreign file is ignored), and resume may only hand
// back trial indices inside the requested grid [0, n).
func FuzzCheckpointLoad(f *testing.F) {
	valid := func(sweeps map[string]*checkpointSweep) []byte {
		raw, err := json.Marshal(&checkpointFile{
			Version: checkpointVersion, Runner: "fuzz", Scale: Quick.String(), Seed: 7, Sweeps: sweeps,
		})
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add(valid(map[string]*checkpointSweep{
		"s0": {N: 4, Done: map[string]json.RawMessage{"0": json.RawMessage(`{"v":0}`), "2": json.RawMessage(`1`)}},
	}), uint8(0), uint8(4))
	f.Add(valid(map[string]*checkpointSweep{
		"s1": {N: 8, Done: map[string]json.RawMessage{"-1": json.RawMessage(`1`), "8": json.RawMessage(`1`), "+3": json.RawMessage(`1`), "x": json.RawMessage(`1`)}},
	}), uint8(1), uint8(8))
	f.Add(valid(map[string]*checkpointSweep{"s0": nil}), uint8(0), uint8(4))
	f.Add(valid(nil), uint8(0), uint8(0))
	f.Add([]byte("{torn write"), uint8(0), uint8(4))
	f.Add([]byte(`{"version":1,"runner":"fuzz","scale":"quick","seed":7,"sweeps":{"s0":{"n":4,"done":null}}}`), uint8(0), uint8(4))
	f.Add([]byte(`{"version":1,"runner":"fuzz","scale":"quick","seed":8}`), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, seq, n uint8) {
		dir := t.TempDir()
		if err := os.WriteFile(checkpointPath(dir, "fuzz", Quick, 7), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openCheckpoint(dir, "fuzz", Quick, 7)
		if err != nil {
			t.Fatalf("checkpoint bytes failed the run: %v", err)
		}
		s.trials()
		for i := range s.resume(int(seq), int(n)) {
			if i < 0 || i >= int(n) {
				t.Fatalf("resume(%d, %d) returned trial %d outside the grid", seq, n, i)
			}
		}
	})
}
