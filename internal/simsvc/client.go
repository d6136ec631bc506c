package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Client is the HTTP client half of the service's transport: it speaks
// the facd API (docs/SERVICE.md) so other processes — the fleet
// coordinator's dispatcher, cmd/experiments -remote, cmd/facload, tests —
// can submit work without re-implementing the wire format. A Client is
// safe for concurrent use.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// Token, when non-empty, is presented as a bearer token on every
	// request (required when the daemon was started with -clients).
	Token string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	// Synchronous runs can take minutes, so any custom client's Timeout
	// must accommodate the longest expected simulation; per-call bounds
	// belong in the request context instead.
	HTTPClient *http.Client
}

// RetryError is a 429 refusal carrying the server's Retry-After hint.
type RetryError struct {
	After time.Duration
	Msg   string
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("simsvc: over quota (retry after %v): %s", e.After, e.Msg)
}

// StatusError is a non-2xx response that is not a quota refusal.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("simsvc: server status %d: %s", e.Status, e.Msg)
}

// Is matches a 422 to ErrRunFailed: the daemon's run failed where it ran.
func (e *StatusError) Is(target error) bool {
	return target == ErrRunFailed && e.Status == http.StatusUnprocessableEntity
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one JSON request. A nil body sends no payload; out, when
// non-nil, receives the decoded 2xx response body: an out with its own
// json.Unmarshaler gets the body whole, so encoding/json never scans it.
// Error responses are mapped to RetryError (429) or StatusError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("simsvc: encode request: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var payload struct {
			Error string `json:"error"`
		}
		msg := ""
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&payload); err == nil {
			msg = payload.Error
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			after := time.Second
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				after = time.Duration(secs) * time.Second
			}
			return &RetryError{After: after, Msg: msg}
		}
		return &StatusError{Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if u, ok := out.(json.Unmarshaler); ok {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return u.UnmarshalJSON(data)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// RunSync runs one spec synchronously (POST /v1/run), returning the
// canonical RunRecord and whether the daemon served it from its
// persistent cache. The record must carry the run-record schema and the
// spec's own benchmark|toolchain|machine key; any other answer is an
// error naming both, so a daemon that answers with another run's record
// never reaches a caller's memo or cache. A 429 (the tenant at its
// in-flight cap) is waited out for its Retry-After and the run
// resubmitted, until ctx ends; RunSync never returns a RetryError.
// Cancelling ctx tears down the connection, which cancels the simulation
// on the daemon.
func (c *Client) RunSync(ctx context.Context, spec JobSpec) (obs.RunRecord, bool, error) {
	var ans obs.RunAnswer
	for {
		err := c.do(ctx, http.MethodPost, "/v1/run", spec, &ans)
		var re *RetryError
		if errors.As(err, &re) {
			select {
			case <-ctx.Done():
				return obs.RunRecord{}, false, ctx.Err()
			case <-time.After(re.After):
				continue
			}
		}
		if err != nil {
			return obs.RunRecord{}, false, err
		}
		break
	}
	if ans.Record.Schema != obs.RunRecordSchema {
		return obs.RunRecord{}, false, fmt.Errorf("simsvc: daemon returned record schema %q (want %q)",
			ans.Record.Schema, obs.RunRecordSchema)
	}
	if got := ans.Record.Key(); got != spec.String() {
		return obs.RunRecord{}, false, fmt.Errorf("simsvc: daemon returned the record of %s for %s", got, spec)
	}
	return ans.Record, ans.CacheHit, nil
}

// Exec runs spec on the daemon through RunSync, making a Client a
// Runner's Remote executor. The daemon keys the run itself, so key is
// unused.
func (c *Client) Exec(ctx context.Context, key string, spec JobSpec) (Served, error) {
	rec, hit, err := c.RunSync(ctx, spec)
	return Served{Rec: rec, CacheHit: hit}, err
}

// Submit posts a batch (POST /v1/batches) and returns the batch id and
// per-job ids.
func (c *Client) Submit(ctx context.Context, jobs []JobSpec) (batch string, jobIDs []string, err error) {
	var resp struct {
		Batch string   `json:"batch"`
		Jobs  []string `json:"jobs"`
	}
	req := struct {
		Jobs []JobSpec `json:"jobs"`
	}{jobs}
	if err := c.do(ctx, http.MethodPost, "/v1/batches", req, &resp); err != nil {
		return "", nil, err
	}
	return resp.Batch, resp.Jobs, nil
}

// BatchStatus is the poll view of one batch (GET /v1/batches/{id}).
type BatchStatus struct {
	Batch     string `json:"batch"`
	Total     int    `json:"total"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`
	Terminal  bool   `json:"terminal"`
}

// Batch polls one batch's status.
func (c *Client) Batch(ctx context.Context, id string) (BatchStatus, error) {
	var st BatchStatus
	err := c.do(ctx, http.MethodGet, "/v1/batches/"+id, nil, &st)
	return st, err
}

// WaitBatch polls until the batch is terminal (or ctx ends).
func (c *Client) WaitBatch(ctx context.Context, id string, poll time.Duration) (BatchStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Batch(ctx, id)
		if err != nil {
			return st, err
		}
		if st.Terminal {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Report fetches a finished batch's canonical report bytes
// (GET /v1/batches/{id}/report) — the byte-identity surface of the
// determinism contract, so it is returned raw rather than decoded.
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/batches/"+id+"/report", nil)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Status: resp.StatusCode, Msg: string(data)}
	}
	return data, nil
}

// Healthz probes the daemon's health endpoint (no authentication).
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Status: resp.StatusCode, Msg: "unhealthy"}
	}
	return nil
}
