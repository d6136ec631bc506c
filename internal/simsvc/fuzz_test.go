package simsvc

import (
	"strconv"
	"testing"
)

// FuzzParseID: job and batch ids index the server's slices, so parseID
// is their bounds check. An id it accepts is the canonical spelling of an
// entry's number (n >= 1, nothing before or after the digits), and every
// canonical id parses back to its number. The seed corpus holds
// TestServerMalformedIDs' ids and an id one past the largest int64.
func FuzzParseID(f *testing.F) {
	f.Fuzz(func(t *testing.T, prefix byte, id string, n int) {
		if got, ok := parseID(prefix, id); ok {
			if got < 1 || id != string([]byte{prefix})+strconv.Itoa(got) {
				t.Fatalf("parseID(%q, %q) = %d, true: not an entry's canonical id", prefix, id, got)
			}
		}
		if n < 1 {
			return
		}
		canon := string([]byte{prefix}) + strconv.Itoa(n)
		if got, ok := parseID(prefix, canon); !ok || got != n {
			t.Fatalf("parseID(%q, %q) = %d, %v; want %d, true", prefix, canon, got, ok, n)
		}
	})
}
