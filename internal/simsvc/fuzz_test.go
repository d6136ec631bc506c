package simsvc

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
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

// cannedTransport answers every request with one status and body,
// without a socket.
type cannedTransport struct {
	status int
	body   []byte
}

func (c cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: c.status,
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(c.body)),
		Request:    req,
	}, nil
}

// FuzzRemoteRecord: a daemon's response is the one place a record enters
// a Runner from outside. Whatever status and body the daemon sends, Run
// either fails and caches nothing, or returns a record with the run-record
// schema and the spec's own key and caches that record under the spec's
// key. The seed corpus holds the spec's own record, another machine's
// record, a wrong schema, truncated JSON, a 500 and a histogram with more
// than obs.HistBuckets buckets.
func FuzzRemoteRecord(f *testing.F) {
	spec := JobSpec{Workload: "queens", Toolchain: "base", Machine: "base32"}
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		cache, err := OpenDiskCache(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{
			Resolve: func(string) (pipeline.Config, error) { return pipeline.DefaultConfig(), nil },
			Cache:   cache,
			Remote: &Client{Base: "http://daemon", HTTPClient: &http.Client{
				Transport: cannedTransport{status: status, body: body},
			}},
		}
		// A 429 is waited out until the context ends, so it gets a short
		// one; every other answer returns without waiting.
		bound := 5 * time.Second
		if status == http.StatusTooManyRequests {
			bound = time.Millisecond
		}
		ctx, cancel := context.WithTimeout(context.Background(), bound)
		defer cancel()
		out, err := r.Run(ctx, spec)
		if err != nil {
			if st := cache.Stats(); st.Entries != 0 {
				t.Fatalf("failed run (%v) cached %d records", err, st.Entries)
			}
			return
		}
		if out.Rec.Schema != obs.RunRecordSchema || out.Rec.Key() != spec.String() {
			t.Fatalf("Run returned schema %q key %q for %s", out.Rec.Schema, out.Rec.Key(), spec)
		}
		key, err := r.Key(spec)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := cache.Get(key)
		if !ok || rec.Schema != obs.RunRecordSchema || rec.Key() != spec.String() {
			t.Fatalf("cache holds %v schema %q key %q, want the returned record", ok, rec.Schema, rec.Key())
		}
	})
}
