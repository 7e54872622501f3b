package experiment

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current runners")

// goldenSeed is the seed every golden CSV was generated with.
const goldenSeed = 42

// TestGolden pins the CSV of every non-demo runner at Quick scale to the
// checked-in testdata/golden/<runner>.csv, byte for byte with no
// tolerance: a refactor that moves any paper number fails here. Rewrite
// the files with
//
//	go test ./internal/experiment -run TestGolden -update
//
// only when an output is meant to change, and say why in the change.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every runner at Quick scale (~10 s)")
	}
	dir := filepath.Join("testdata", "golden")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range Runners() {
		if r.Demo {
			continue
		}
		t.Run(r.Name, func(t *testing.T) {
			res, err := r.Run(context.Background(), Quick, goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			got := []byte(res.CSV())
			path := filepath.Join(dir, r.Name+".csv")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s CSV differs from %s\ngot:\n%s\nwant:\n%s", r.Name, path, got, want)
			}
		})
	}
}
