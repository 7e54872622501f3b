package chaos

import "testing"

// FuzzParseMode feeds arbitrary -chaos flag values to ParseMode. Any
// accepted value must name only known fault classes (a subset of
// ModeAll) and survive a String round trip unchanged.
func FuzzParseMode(f *testing.F) {
	for _, s := range []string{
		"", "none", "all", "latency", "latency,corrupt", " reset , freeze ",
		"partial,accept-stall", "latency,bogus", ",", "all,none", "LATENCY",
		ModeAll.String(),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMode(s)
		if err != nil {
			return
		}
		if m&^ModeAll != 0 {
			t.Fatalf("ParseMode(%q) = %#x, outside ModeAll %#x", s, uint32(m), uint32(ModeAll))
		}
		back, err := ParseMode(m.String())
		if err != nil {
			t.Fatalf("ParseMode(%q).String() = %q does not parse: %v", s, m.String(), err)
		}
		if back != m {
			t.Fatalf("ParseMode(%q) = %v, but its String %q parses to %v", s, m, m.String(), back)
		}
	})
}
