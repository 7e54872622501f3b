package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

// frameBytes renders one frame through a writer into a byte slice.
func frameBytes(write func(*bytes.Buffer) error) []byte {
	var b bytes.Buffer
	if err := write(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// countHeader is a bare request-frame header advertising count floats.
func countHeader(count uint32) []byte {
	return binary.LittleEndian.AppendUint32(nil, count)
}

// sameFloats compares two vectors bit for bit (NaN and -0 included).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzReadRequestFrame drives the server-side VXB1 request decoder with
// arbitrary bytes and input dimensions. It must never panic; an
// accepted frame holds exactly inputs finite values and re-encodes to
// the bytes it consumed; a count of 0 or above maxFrameFloats is
// rejected after the 4-byte header, without allocating its payload.
func FuzzReadRequestFrame(f *testing.F) {
	write := func(x []float64) []byte {
		return frameBytes(func(b *bytes.Buffer) error { return writeRequestFrame(b, x) })
	}
	for i := 0; i < 3; i++ {
		f.Add(write(testInput(i)), uint16(4))
	}
	f.Add(write(make([]float64, 7)), uint16(4)) // wrong dimension
	nan := testInput(0)
	nan[1] = math.NaN()
	f.Add(write(nan), uint16(4))
	inf := testInput(1)
	inf[3] = math.Inf(-1)
	f.Add(write(inf), uint16(4))
	for _, count := range []uint32{0, maxFrameFloats + 1, 0xffffffff} {
		f.Add(countHeader(count), uint16(4))
	}
	f.Add(write(testInput(2))[:13], uint16(4)) // torn mid-payload
	f.Fuzz(func(t *testing.T, data []byte, inputs uint16) {
		r := bytes.NewReader(data)
		if len(data) >= 4 {
			if count := binary.LittleEndian.Uint32(data); count == 0 || count > maxFrameFloats {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := readRequestFrame(r, int(inputs))
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatalf("count %d accepted", count)
				}
				if consumed := len(data) - r.Len(); consumed != 4 {
					t.Fatalf("count %d: consumed %d bytes, want the 4-byte header only", count, consumed)
				}
				// The smallest payload above the guard is 8 MiB; the
				// rejection itself allocates a few small objects.
				if grown := after.TotalAlloc - before.TotalAlloc; grown >= 8*maxFrameFloats {
					t.Fatalf("count %d: rejection allocated %d bytes", count, grown)
				}
				return
			}
		}
		x, err := readRequestFrame(r, int(inputs))
		consumed := len(data) - r.Len()
		if err != nil {
			if x != nil {
				t.Fatalf("rejected frame returned %d values", len(x))
			}
			return
		}
		if len(x) != int(inputs) {
			t.Fatalf("accepted %d values, want %d", len(x), inputs)
		}
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite value %v at %d", v, i)
			}
		}
		if re := write(x); !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encoded frame differs from the %d bytes consumed", consumed)
		}
	})
}

// FuzzReadResponseFrame drives the client-side VXB1 response decoder
// with arbitrary bytes. It must never panic, and whatever it decodes —
// a classification or a *RemoteError — must survive a trip through the
// matching writer unchanged.
func FuzzReadResponseFrame(f *testing.F) {
	okFrame := func(cls Classification) []byte {
		return frameBytes(func(b *bytes.Buffer) error { return writeOKFrame(b, cls) })
	}
	errFrame := func(status byte, retry time.Duration, msg string) []byte {
		return frameBytes(func(b *bytes.Buffer) error { return writeErrorFrame(b, status, retry, msg) })
	}
	f.Add(okFrame(Classification{Class: 3, Scores: stubScores(testInput(3))}))
	f.Add(okFrame(Classification{Class: -1, Scores: []float64{math.NaN(), math.Inf(1)}, Degraded: true}))
	f.Add(okFrame(Classification{}))
	f.Add(errFrame(StatusBadRequest, 0, "bad frame: input length 7, want 4"))
	f.Add(errFrame(StatusOverloaded, 250*time.Millisecond, ErrQueueFull.Error()))
	f.Add(errFrame(StatusDraining, 250*time.Millisecond, ErrDraining.Error()))
	f.Add(errFrame(StatusDeadlineExceeded, 0, ErrDeadlineExceeded.Error()))
	f.Add(append([]byte{StatusOK, 0, 0, 0, 0, 0}, countHeader(maxFrameFloats+1)...)) // oversized scores
	f.Add(append([]byte{StatusInternal, 0, 0, 0, 0}, countHeader(1<<16+1)...))       // oversized message
	f.Add(okFrame(Classification{Class: 2, Scores: []float64{1, 2, 3}})[:12])        // torn
	f.Fuzz(func(t *testing.T, data []byte) {
		cls, err := readResponseFrame(bytes.NewReader(data))
		var re *RemoteError
		switch {
		case errors.As(err, &re):
			if re.Status == StatusOK {
				t.Fatal("RemoteError carries StatusOK")
			}
			_, err2 := readResponseFrame(bytes.NewReader(errFrame(re.Status, re.RetryAfter, re.Msg)))
			var re2 *RemoteError
			if !errors.As(err2, &re2) || *re2 != *re {
				t.Fatalf("error frame round trip: %+v, then %v", re, err2)
			}
		case err == nil:
			cls2, err2 := readResponseFrame(bytes.NewReader(okFrame(cls)))
			if err2 != nil || cls2.Class != cls.Class || cls2.Degraded != cls.Degraded ||
				!sameFloats(cls2.Scores, cls.Scores) {
				t.Fatalf("OK frame round trip: %+v, then %+v (%v)", cls, cls2, err2)
			}
		}
	})
}
