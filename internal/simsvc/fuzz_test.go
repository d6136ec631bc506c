package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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
// record, a wrong schema, truncated JSON, a 500, a histogram with more
// than obs.HistBuckets buckets, and records with an unknown key and with
// a case-variant key, which the record's reader refuses.
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

// fuzzBodyLimit is the server's body bound under FuzzSubmitBody: large
// enough for a batch of maxBatchJobs+1 empty specs, small enough that a
// seed over it stays small.
const fuzzBodyLimit = 16 << 10

// FuzzSubmitBody: the body of POST /v1/batches is outside input, checked
// by decodeStrict and the runner's Validate. Whatever the bytes, a fresh
// server answers 202, 400, 413 or 429. A 202 names one job id per job
// in the body, j1 to jn, and raises Stats().Submitted by n; any other
// answer admits nothing and carries a JSON error object. The seeds are
// a valid one-job batch, an unknown field, trailing data, no jobs,
// maxBatchJobs+1 jobs, a body over the limit, and a number where a
// string belongs.
func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{
		`{"jobs":[{"workload":"queens","toolchain":"base","machine":"base32"}]}`,
		`{"jobs":[{"workload":"queens","toolchain":"base","machine":"base32","speed":1}]}`,
		`{"jobs":[{"workload":"queens"}]} {}`,
		`{"jobs":[]}`,
		`{"jobs":[{}` + strings.Repeat(`,{}`, maxBatchJobs) + `]}`,
		`{"jobs":[{"workload":"` + strings.Repeat("q", fuzzBodyLimit) + `"}]}`,
		`{"jobs":[{"workload":5}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := NewServer(ServerConfig{Workers: 1, MaxBodyBytes: fuzzBodyLimit}, &stubRunner{})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Drain(ctx)
		}()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batches", bytes.NewReader(body)))
		submitted := s.Stats().Submitted

		switch w.Code {
		case http.StatusAccepted:
			var req submitRequest
			var resp submitResponse
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("admitted a body that does not decode: %v", err)
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("202 body %q: %v", w.Body, err)
			}
			if len(resp.Jobs) != len(req.Jobs) || submitted != uint64(len(req.Jobs)) {
				t.Fatalf("%d jobs in the body, %d ids answered, Submitted=%d", len(req.Jobs), len(resp.Jobs), submitted)
			}
			for i, id := range resp.Jobs {
				if id != "j"+strconv.Itoa(i+1) {
					t.Fatalf("job %d has id %q", i, id)
				}
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d with body %q: want a JSON error object", w.Code, w.Body)
			}
			if submitted != 0 {
				t.Fatalf("status %d admitted %d jobs", w.Code, submitted)
			}
		default:
			t.Fatalf("status %d, body %q", w.Code, w.Body)
		}
	})
}

// fuzzRunMaxInsts is FuzzRunBody's default instruction bound: hashp and
// dct finish under it, and the other programs exceed it within a few
// tens of milliseconds and fail with 422.
const fuzzRunMaxInsts = 500_000

// FuzzRunBody: the body of POST /v1/run is outside input, checked by
// decodeStrict and the runner's Validate, then run through the Runner and
// its cache. Whatever the bytes, a started server answers 200, 400, 413
// or 422. A 200 carries a record with the run-record schema and the
// key of the spec in the body, and a 200 with cache_hit is byte-identical
// to writeJSON's encoding of that record. Any other answer is a JSON
// error object and leaves the cache's entry count as it was. The Runner
// resolves base32, fac32 and stride and caches in a directory the hit
// seed's run filled before fuzzing. The seeds are that hit, a miss that
// exceeds its budget (422), an unknown field, trailing data, an unknown
// machine, a body over the limit, and a number where a string belongs.
func FuzzRunBody(f *testing.F) {
	hit := `{"workload":"hashp","toolchain":"base","machine":"base32"}`
	for _, seed := range []string{
		hit,
		`{"workload":"compress","toolchain":"base","machine":"base32"}`,
		`{"workload":"hashp","toolchain":"base","machine":"base32","speed":1}`,
		hit + ` {}`,
		`{"workload":"hashp","toolchain":"base","machine":"warp9"}`,
		`{"workload":"` + strings.Repeat("q", fuzzBodyLimit) + `"}`,
		`{"workload":5}`,
	} {
		f.Add([]byte(seed))
	}
	cache, err := OpenDiskCache(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	r := &Runner{Resolve: testMachine, MaxInsts: fuzzRunMaxInsts, Cache: cache}
	var spec JobSpec
	if err := json.Unmarshal([]byte(hit), &spec); err != nil {
		f.Fatal(err)
	}
	if _, err := r.Run(context.Background(), spec); err != nil {
		f.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Workers: 1, MaxBodyBytes: fuzzBodyLimit}, r)
	if err != nil {
		f.Fatal(err)
	}
	s.Start()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		entries := cache.Stats().Entries
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))

		switch w.Code {
		case http.StatusOK:
			var spec JobSpec
			if err := json.Unmarshal(body, &spec); err != nil {
				t.Fatalf("ran a body that does not decode: %v", err)
			}
			var ans struct {
				CacheHit bool          `json:"cache_hit"`
				Record   obs.RunRecord `json:"record"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &ans); err != nil {
				t.Fatalf("200 body %q: %v", w.Body, err)
			}
			if ans.Record.Schema != obs.RunRecordSchema || ans.Record.Key() != spec.String() {
				t.Fatalf("answered schema %q key %q for %s", ans.Record.Schema, ans.Record.Key(), spec)
			}
			if ans.CacheHit {
				want := httptest.NewRecorder()
				writeJSON(want, http.StatusOK, map[string]any{"cache_hit": true, "record": ans.Record})
				if !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("hit answer\n%s\nwant writeJSON's\n%s", w.Body, want.Body)
				}
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d with body %q: want a JSON error object", w.Code, w.Body)
			}
			if n := cache.Stats().Entries; n != entries {
				t.Fatalf("status %d changed the cache from %d to %d entries", w.Code, entries, n)
			}
		default:
			t.Fatalf("status %d, body %q", w.Code, w.Body)
		}
	})
}
