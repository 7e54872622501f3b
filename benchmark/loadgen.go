package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vortex/internal/rng"
	"vortex/internal/serve"
)

// The open loop pipelines raw frames of vortexd's binary protocol
// (serve/binary.go): a request is [u32 count][count x f64], a reply
// [u8 status] then, for StatusOK, [i32 class][u8 degraded][u32 n]
// [n x f64], else [u32 retryAfterMs][u32 len][len bytes]. All
// little-endian; replies come back in request order per connection.

// encodeRequest renders one request frame.
func encodeRequest(x []float64) []byte {
	b := make([]byte, 4+8*len(x))
	binary.LittleEndian.PutUint32(b, uint32(len(x)))
	for i, v := range x {
		binary.LittleEndian.PutUint64(b[4+8*i:], math.Float64bits(v))
	}
	return b
}

// readReply decodes one reply frame: the class for StatusOK, else the
// non-OK status.
func readReply(r *bufio.Reader) (class int, status byte, err error) {
	var hdr [9]byte
	if status, err = r.ReadByte(); err != nil {
		return 0, 0, err
	}
	if status != serve.StatusOK {
		if _, err = io.ReadFull(r, hdr[:8]); err != nil {
			return 0, status, err
		}
		_, err = r.Discard(int(binary.LittleEndian.Uint32(hdr[4:8])))
		return 0, status, err
	}
	if _, err = io.ReadFull(r, hdr[:9]); err != nil {
		return 0, status, err
	}
	class = int(int32(binary.LittleEndian.Uint32(hdr[:4])))
	_, err = r.Discard(8 * int(binary.LittleEndian.Uint32(hdr[5:9])))
	return class, status, err
}

// poissonSchedule returns the due times, as offsets from the step's
// start, of Poisson arrivals at rate per second over dur. The same
// (rate, dur, seed) always gives the same schedule.
func poissonSchedule(rate float64, dur time.Duration, seed uint64) []time.Duration {
	src := rng.New(seed)
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-src.Float64()) / rate
		d := time.Duration(t * 1e9)
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// scheduleSeed derives a rate step's schedule seed from the run seed
// and the offered rate.
func scheduleSeed(seed uint64, rate float64) uint64 {
	return seed*0x9e3779b97f4a7c15 ^ math.Float64bits(rate)
}

// stepResult is one open-loop step at a fixed offered rate.
type stepResult struct {
	tally
	rate      float64
	dur       time.Duration
	lat       []time.Duration // from due time to reply, answered requests
	lateP99ms float64         // how late the generator sent, p99
	inWindow  int64           // replies received before the step ended
	aborted   bool            // a connection reached maxOutstanding
}

// pass reports whether the step met the limit: no failures, p99 within
// p99Limit and the answered rate keeping up with the offered rate.
func (s *stepResult) pass() bool {
	return s.failed == 0 && !s.aborted && len(s.lat) > 0 &&
		millis(s.lat).quantile(0.99) <= float64(p99Limit)/1e6 &&
		float64(s.inWindow) >= answeredShare*float64(s.attempted)
}

func (s *stepResult) String() string {
	return fmt.Sprintf("rate=%.0f/s dur=%.2fs sent=%d answered=%d in_window=%d failed=%d p50=%.3fms p99=%.3fms late_p99=%.3fms samples=%d pass=%v",
		s.rate, s.dur.Seconds(), s.attempted, s.answered, s.inWindow, s.failed,
		millis(s.lat).median(), millis(s.lat).quantile(0.99), s.lateP99ms, len(s.lat), s.pass())
}

// openStep offers Poisson traffic at rate for dur, pipelined over conns
// connections (request k goes to connection k mod conns). Each request
// is timed from its due time, so a stall delays every later request's
// clock too.
func openStep(addr string, conns int, rate float64, dur time.Duration, p *reqPool, seed uint64) (*stepResult, error) {
	sched := poissonSchedule(rate, dur, scheduleSeed(seed, rate))
	n := len(sched)
	lat := make([]time.Duration, n)  // reply time - due time; -1 unanswered
	late := make([]time.Duration, n) // send time - due time
	recvAt := make([]time.Duration, n)
	for i := range lat {
		lat[i] = -1
	}
	links := make([]net.Conn, conns)
	for i := range links {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err == nil {
			_, err = c.Write(serve.Magic[:])
		}
		if err != nil {
			for _, l := range links[:i] {
				l.Close()
			}
			if c != nil {
				c.Close()
			}
			return nil, err
		}
		links[i] = c
	}
	res := &stepResult{rate: rate, dur: dur}
	talls := make([]tally, conns)
	var aborted atomic.Bool
	start := time.Now().Add(2 * time.Millisecond)
	deadline := start.Add(dur + drainGrace)
	var wg sync.WaitGroup
	for ci, conn := range links {
		conn.SetDeadline(deadline)
		var outstanding atomic.Int64
		// One entry per request this connection sends, so the writer
		// never blocks on the reader.
		sent := make(chan int, n/conns+1)
		wg.Add(2)
		go func(conn net.Conn, ci int) { // writer
			defer wg.Done()
			defer close(sent)
			bw := bufio.NewWriterSize(conn, 64<<10)
			for k := ci; k < n; k += conns {
				due := start.Add(sched[k])
				if d := time.Until(due); d > 0 {
					if bw.Flush() != nil {
						return
					}
					time.Sleep(d)
				}
				if outstanding.Load() >= maxOutstanding {
					aborted.Store(true)
					break
				}
				late[k] = time.Since(due)
				if _, err := bw.Write(p.frames[k%len(p.frames)]); err != nil {
					return
				}
				outstanding.Add(1)
				sent <- k
			}
			bw.Flush()
		}(conn, ci)
		go func(conn net.Conn, ci int) { // reader
			defer wg.Done()
			br := bufio.NewReaderSize(conn, 64<<10)
			t := &talls[ci]
			broken := false
			for k := range sent {
				t.attempted++
				if broken {
					t.failed++
					continue
				}
				class, status, err := readReply(br)
				now := time.Now()
				outstanding.Add(-1)
				switch {
				case err != nil:
					broken = true
					t.failed++
				case status != serve.StatusOK:
					t.failed++
				default:
					j := k % len(p.frames)
					t.answer(p, j, class)
					lat[k] = now.Sub(start.Add(sched[k]))
					recvAt[k] = now.Sub(start)
				}
			}
		}(conn, ci)
	}
	wg.Wait()
	for _, c := range links {
		c.Close()
	}
	res.aborted = aborted.Load()
	var lateMS sample
	for ci := range talls {
		res.add(talls[ci])
	}
	unsent := int64(n) - res.attempted
	res.attempted += unsent
	res.failed += unsent
	for k := range lat {
		if lat[k] < 0 {
			continue
		}
		res.lat = append(res.lat, lat[k])
		lateMS = append(lateMS, float64(late[k])/1e6)
		if recvAt[k] <= dur {
			res.inWindow++
		}
	}
	res.lateP99ms = lateMS.quantile(0.99)
	if len(lateMS) == 0 {
		res.lateP99ms = 0
	}
	return res, nil
}

// stepDur is how long a step at rate runs: long enough for a resolved
// p99, at least minStep.
func stepDur(rate float64) time.Duration {
	return max(minStep, time.Duration(minStepSamples/rate*1e9))
}

// searchRate finds the highest offered rate whose step passes. The
// first step offers the closed loop's throughput, the capacity
// estimate; steps then double until one fails (or halve until one
// passes) and bisect geometrically between the last pass and the first
// failure until the budget is spent or the bracket is within 3%. A
// failing rate is offered once more, with another schedule, before it
// counts as failed, so one host stall does not end the climb.
func searchRate(addr string, conns int, p *reqPool, seed uint64, capacity float64, budget time.Duration, tiny bool) (float64, []*stepResult, error) {
	const (
		floor   = 50.0
		ceiling = 1 << 20
	)
	lo, hi := 0.0, 0.0
	var steps []*stepResult
	end := time.Now().Add(budget)
	for {
		var r float64
		switch {
		case lo == 0 && hi == 0:
			r = capacity
		case hi == 0:
			r = 2 * lo
		case lo == 0:
			r = hi / 2
		default:
			r = math.Sqrt(lo * hi)
		}
		if r < floor || r > ceiling || (lo > 0 && hi > 0 && hi/lo < 1.03) {
			break
		}
		d := stepDur(r)
		if tiny {
			d = minStep / 4
		}
		if time.Until(end) < d {
			break
		}
		st, err := openStep(addr, conns, r, d, p, seed)
		if err != nil {
			return 0, steps, err
		}
		steps = append(steps, st)
		if !st.pass() && time.Until(end) >= d {
			if st, err = openStep(addr, conns, r, d, p, seed+1); err != nil {
				return 0, steps, err
			}
			steps = append(steps, st)
		}
		if st.pass() {
			lo = r
		} else {
			hi = r
		}
	}
	return lo, steps, nil
}
