package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestGaugeSnapshotConsistencyUnderRace pins the snapshot contract the
// fleet layer relies on: per-array state/health gauges are written from
// repair goroutines while Snapshot is read from monitoring code, and a
// snapshot must only ever observe values some writer actually stored —
// never a torn mix of two writes. Writers store values drawn from a
// small known set; any other value in a snapshot is a torn read. Run
// under -race (make race does).
func TestGaugeSnapshotConsistencyUnderRace(t *testing.T) {
	r := NewRegistry()
	// The legal values: bit patterns far apart, so a torn 32/32 mix of
	// any two would not be in the set.
	legal := []float64{0, 1, 0.5, -3.25e100, 7.75e-200}
	isLegal := func(v float64) bool {
		for _, l := range legal {
			if v == l {
				return true
			}
		}
		return false
	}
	const gauges = 8
	for i := 0; i < gauges; i++ {
		r.Gauge(fmt.Sprintf("hw.circuit.a%d.health", i)).Set(legal[0])
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < gauges; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := r.Gauge(fmt.Sprintf("hw.circuit.a%d.health", i))
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
					g.Set(legal[k%len(legal)])
				}
			}
		}(i)
	}
	for n := 0; n < 200; n++ {
		snap := r.Snapshot()
		if len(snap.Gauges) != gauges {
			t.Errorf("snapshot saw %d gauges, want %d", len(snap.Gauges), gauges)
			break
		}
		for name, v := range snap.Gauges {
			if !isLegal(v) {
				t.Errorf("torn gauge read: %s = %v", name, v)
			}
		}
	}
	close(stop)
	wg.Wait()
}
