package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vortex/internal/fleet"
)

// stubEngine is a scriptable Engine: deterministic scores (score j =
// sum(x) + j mod small prime keeps argmax input-dependent), optional
// gate to block batches, batch-size recording.
type stubEngine struct {
	mu         sync.Mutex
	batchSizes []int
	gate       chan struct{} // when non-nil, ReadBatch blocks until it closes
	fail       atomic.Bool   // when set, ReadBatch errors
	calls      atomic.Int64
}

func (e *stubEngine) ReadBatch(xs [][]float64) (fleet.BatchResult, error) {
	e.calls.Add(1)
	if e.gate != nil {
		<-e.gate
	}
	if e.fail.Load() {
		return fleet.BatchResult{}, fmt.Errorf("stub: engine down")
	}
	e.mu.Lock()
	e.batchSizes = append(e.batchSizes, len(xs))
	e.mu.Unlock()
	res := fleet.BatchResult{
		Scores:  make([][]float64, len(xs)),
		Classes: make([]int, len(xs)),
		Member:  "stub0",
	}
	for i, x := range xs {
		res.Scores[i] = stubScores(x)
		res.Classes[i] = argmax(res.Scores[i])
	}
	return res, nil
}

// stubScores maps an input to a deterministic 10-class score vector.
func stubScores(x []float64) []float64 {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	s := make([]float64, 10)
	for j := range s {
		s[j] = sum * float64((j*7+int(sum*100))%11)
	}
	return s
}

func argmax(s []float64) int {
	best := 0
	for i, v := range s {
		if v > s[best] {
			best = i
		}
	}
	return best
}

// startServer boots a Server on a loopback listener and returns it
// with its address; the cleanup drains it (unless the test already
// did).
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		if !s.Draining() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("cleanup shutdown: %v", err)
			}
		}
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return s, ln.Addr().String()
}

func testInput(seed int) []float64 {
	x := make([]float64, 4)
	for i := range x {
		x[i] = float64((seed+i)%10) / 10
	}
	return x
}

func postClassify(t *testing.T, addr string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/classify", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestJSONClassify(t *testing.T) {
	eng := &stubEngine{}
	_, addr := startServer(t, Config{Inputs: 4, Engine: eng})

	x := testInput(3)
	resp, body := postClassify(t, addr, ClassifyRequest{Input: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Result == nil {
		t.Fatal("missing result")
	}
	want := stubScores(x)
	if cr.Result.Class != argmax(want) {
		t.Errorf("class %d, want %d", cr.Result.Class, argmax(want))
	}
	if len(cr.Result.Scores) != 10 {
		t.Errorf("got %d scores, want 10", len(cr.Result.Scores))
	}
	if cr.Result.Member != "stub0" {
		t.Errorf("member %q", cr.Result.Member)
	}

	// Client-side batch.
	resp, body = postClassify(t, addr, ClassifyRequest{Inputs: [][]float64{testInput(1), testInput(2)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br ClassifyResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(br.Results))
	}
}

func TestJSONValidation(t *testing.T) {
	eng := &stubEngine{}
	_, addr := startServer(t, Config{Inputs: 4, Engine: eng, BatchMax: 4})

	cases := []struct {
		name string
		body any
		want int
	}{
		{"wrong dimension", ClassifyRequest{Input: make([]float64, 7)}, http.StatusBadRequest},
		{"empty", ClassifyRequest{}, http.StatusBadRequest},
		{"both set", map[string]any{"input": testInput(0), "inputs": [][]float64{testInput(1)}}, http.StatusBadRequest},
		{"oversized batch", ClassifyRequest{Inputs: [][]float64{
			testInput(0), testInput(1), testInput(2), testInput(3), testInput(4)}}, http.StatusBadRequest},
		{"non-finite", map[string]any{"input": []any{0.1, "NaN", 0.2, 0.3}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postClassify(t, addr, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	if got := eng.calls.Load(); got != 0 {
		t.Errorf("engine saw %d batches from invalid requests", got)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// One worker blocked on the gate, queue depth 2: the first request
	// occupies the worker, two fill the queue, the next must get 429.
	eng := &stubEngine{gate: make(chan struct{})}
	s, addr := startServer(t, Config{
		Inputs: 4, Engine: eng, QueueDepth: 2, Workers: 1, BatchMax: 1, BatchLinger: -1,
		RetryAfter: 1500 * time.Millisecond,
	})

	var wg sync.WaitGroup
	results := make(chan int, 16)
	// Saturate: the gate holds the worker, so at most 1 (in worker) + 2
	// (queued) requests are in flight; send 8, expect >= 5 rejections.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(ClassifyRequest{Input: testInput(i)})
			resp, err := http.Post("http://"+addr+"/v1/classify", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				if ra := resp.Header.Get("Retry-After"); ra != "2" {
					t.Errorf("Retry-After %q, want %q (1.5s rounded up)", ra, "2")
				}
				var er ErrorResponse
				json.NewDecoder(resp.Body).Decode(&er)
				if er.RetryAfterMs != 1500 {
					t.Errorf("retry_after_ms %d, want 1500", er.RetryAfterMs)
				}
			}
			results <- resp.StatusCode
		}(i)
	}
	// Wait until the rejections have landed, then open the gate so the
	// admitted requests drain.
	deadline := time.After(10 * time.Second)
	got429 := 0
	collected := 0
	var codes []int
	for collected < 5 { // 8 sent, at most 3 admitted => at least 5 rejected
		select {
		case c := <-results:
			collected++
			codes = append(codes, c)
			if c == http.StatusTooManyRequests {
				got429++
			}
		case <-deadline:
			t.Fatalf("only %d responses before the gate opened (codes %v)", collected, codes)
		}
	}
	close(eng.gate)
	wg.Wait()
	close(results)
	for c := range results {
		codes = append(codes, c)
		if c == http.StatusTooManyRequests {
			got429++
		}
	}
	if got429 < 5 {
		t.Errorf("got %d 429s from 8 requests over a 2-deep queue, want >= 5 (codes %v)", got429, codes)
	}
	st := s.Stats()
	if st.RejectedQueueFull != int64(got429) {
		t.Errorf("stats rejected_queue_full %d, want %d", st.RejectedQueueFull, got429)
	}
	if st.Accepted+st.RejectedQueueFull != 8 {
		t.Errorf("accepted %d + rejected %d != 8", st.Accepted, st.RejectedQueueFull)
	}
}

func TestBinaryQueueFullStatus(t *testing.T) {
	eng := &stubEngine{gate: make(chan struct{})}
	_, addr := startServer(t, Config{
		Inputs: 4, Engine: eng, QueueDepth: 1, Workers: 1, BatchMax: 1, BatchLinger: -1,
		RetryAfter: 300 * time.Millisecond,
	})

	// Fill the worker and the queue from two connections, then a third
	// must see StatusOverloaded.
	var fillWg sync.WaitGroup
	for i := 0; i < 2; i++ {
		c, err := DialBinary(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fillWg.Add(1)
		go func(c *BinaryClient, i int) {
			defer fillWg.Done()
			if _, err := c.Classify(testInput(i)); err != nil {
				t.Errorf("filler %d: %v", i, err)
			}
		}(c, i)
	}
	// Let the fillers occupy worker + queue.
	waitFor(t, 5*time.Second, func() bool { return eng.calls.Load() >= 1 })

	c3, err := DialBinary(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	var overloaded bool
	for i := 0; i < 50; i++ {
		_, err = c3.Classify(testInput(9))
		var rerr *RemoteError
		if errors.As(err, &rerr) && rerr.Status == StatusOverloaded {
			overloaded = true
			if rerr.RetryAfter != 300*time.Millisecond {
				t.Errorf("retry-after %v, want 300ms", rerr.RetryAfter)
			}
			break
		}
		// The queue may briefly have room while the filler's request
		// moves into the worker; re-fill by trying again.
	}
	if !overloaded {
		t.Error("never saw StatusOverloaded from a saturated queue")
	}
	close(eng.gate)
	fillWg.Wait()
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestMicroBatching(t *testing.T) {
	// Many concurrent single-input requests with a generous linger must
	// coalesce into multi-request ReadBatch calls.
	eng := &stubEngine{}
	_, addr := startServer(t, Config{
		Inputs: 4, Engine: eng, Workers: 1, BatchMax: 16, BatchLinger: 5 * time.Millisecond,
	})
	const n = 48
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postClassify(t, addr, ClassifyRequest{Input: testInput(i)})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	eng.mu.Lock()
	defer eng.mu.Unlock()
	total, maxB := 0, 0
	for _, b := range eng.batchSizes {
		total += b
		if b > maxB {
			maxB = b
		}
	}
	if total != n {
		t.Errorf("batches cover %d requests, want %d", total, n)
	}
	if maxB < 2 {
		t.Errorf("max micro-batch size %d; concurrent load never coalesced (sizes %v)", maxB, eng.batchSizes)
	}
}

func TestEngineFailure(t *testing.T) {
	eng := &stubEngine{}
	eng.fail.Store(true)
	s, addr := startServer(t, Config{Inputs: 4, Engine: eng})
	resp, body := postClassify(t, addr, ClassifyRequest{Input: testInput(0)})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "engine down") {
		t.Errorf("body %q does not carry the engine error", body)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Errorf("failed count %d, want 1", st.Failed)
	}
}

func TestHealthAndStats(t *testing.T) {
	eng := &stubEngine{}
	s, addr := startServer(t, Config{Inputs: 4, Engine: eng})
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "serving" || h.Inputs != 4 {
		t.Errorf("healthz %+v", h)
	}
	if _, err := s.submit(testInput(1)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get("http://" + addr + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Served != 1 || st.Accepted != 1 {
		t.Errorf("statz %+v", st)
	}

	// The Prometheus exposition endpoint serves the shared registry.
	resp, err = http.Get("http://" + addr + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "serve_served_total") {
		t.Errorf("prometheus exposition missing serve counters:\n%.400s", buf.String())
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(Config{Engine: &stubEngine{}}); err == nil {
		t.Error("zero inputs accepted")
	}
	if _, err := New(Config{Inputs: 4, Engine: &stubEngine{}, BatchLinger: -2}); err != nil {
		t.Errorf("negative linger (= disabled) rejected: %v", err)
	}
}

// TestServeRealFleet wires a real quick-scale fleet under the
// server and checks classifications flow end to end — the integration
// path vortexd runs, minus the process boundary.
func TestServeRealFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping fleet boot (trains a classifier)")
	}
	boot, err := BuildFleet(BootConfig{Scale: "quick", Members: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if boot.Inputs != 49 {
		t.Fatalf("quick-scale inputs %d, want 49", boot.Inputs)
	}
	s, addr := startServer(t, Config{Inputs: boot.Inputs, Engine: boot.Fleet})

	correct, n := 0, 0
	for _, smp := range boot.Test.Samples[:40] {
		resp, body := postClassify(t, addr, ClassifyRequest{Input: smp.Pixels})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var cr ClassifyResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Result.Member == "" {
			t.Fatal("result missing member id")
		}
		if cr.Result.Class == smp.Label {
			correct++
		}
		n++
	}
	// The fleet's own accuracy is ~0.6+ at quick scale; served answers
	// must look like classifications, not noise.
	if frac := float64(correct) / float64(n); frac < 0.3 {
		t.Errorf("served accuracy %.2f over %d samples; routing looks broken", frac, n)
	}
	if st := s.Stats(); st.Fleet == nil {
		t.Error("stats missing fleet snapshot for a fleet engine")
	}

	// Binary and JSON answers agree on the real fleet too.
	bc, err := DialBinary(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	x := boot.Test.Samples[0].Pixels
	bin, err := bc.Classify(x)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postClassify(t, addr, ClassifyRequest{Input: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cr ClassifyResponse
	json.Unmarshal(body, &cr)
	if bin.Class != cr.Result.Class {
		t.Errorf("binary class %d != json class %d", bin.Class, cr.Result.Class)
	}
}
