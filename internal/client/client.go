// Package client is the Go client of the lease service: it speaks the
// HTTP/JSON protocol declared in internal/wire against a cmd/leased
// daemon (or any handler built by internal/server), decodes wire errors
// into typed values, and turns the service's fail-fast 429 backpressure
// into transparent resume-after-accepted retries with exponential
// backoff — so callers see the same blocking-ingestion semantics the
// in-process engine gives, over the network.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"leasing/internal/wire"
)

// Options shapes a Client. The zero value is usable.
type Options struct {
	// Token is sent as the bearer token when non-empty.
	Token string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Chunk caps events per submit request. Default 512.
	Chunk int
	// RetryWait is the initial backpressure backoff, doubled per
	// consecutive 429 up to 64x, with seeded jitter (see JitterSeed).
	// Default 2ms.
	RetryWait time.Duration
	// JitterSeed seeds the deterministic backoff jitter. The effective
	// seed mixes in the tenant name, so concurrent producers spread out
	// while any given (seed, tenant) pair replays the exact same retry
	// schedule. Zero is a valid seed.
	JitterSeed int64
	// MaxRetries caps consecutive no-progress 429 retries before Submit
	// gives up. Default 20.
	MaxRetries int
	// Binary switches the submit framing to binary
	// (wire.ContentTypeBinary): Submit encodes events as length-prefixed
	// binary frames into pooled buffers. Every other
	// endpoint, Result included, stays JSON. The server decodes identical
	// events either way — the binary encoding is exact — so Binary is
	// purely a throughput knob.
	Binary bool
}

// Client talks to one lease service. Create it with New; methods are
// safe for concurrent use (one tenant's events must still be submitted
// from one goroutine, as with the in-process engine).
type Client struct {
	base string
	opts Options
	bufs sync.Pool // *[]byte, binary encode scratch
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts Options) *Client {
	if opts.HTTPClient == nil {
		// The default transport keeps only two idle connections per
		// host, which makes concurrent producers churn through TCP
		// handshakes; a per-client transport sized for fan-in keeps the
		// submit path on warm connections.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 256
		tr.MaxIdleConnsPerHost = 256
		opts.HTTPClient = &http.Client{Transport: tr}
	}
	if opts.Chunk < 1 {
		opts.Chunk = 512
	}
	if opts.RetryWait <= 0 {
		opts.RetryWait = 2 * time.Millisecond
	}
	if opts.MaxRetries < 1 {
		opts.MaxRetries = 20
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), opts: opts}
}

// do performs one request and decodes the response into out. Non-2xx
// responses decode into *wire.Error, which is returned as the error.
func (c *Client) do(ctx context.Context, method, path, contentType string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.Token)
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		apiErr := &wire.Error{}
		if err := json.NewDecoder(resp.Body).Decode(apiErr); err != nil || apiErr.Code == "" {
			return fmt.Errorf("client: %s %s: unexpected status %d", method, path, resp.StatusCode)
		}
		return apiErr
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	contentType := ""
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
		contentType = "application/json"
	}
	return c.do(ctx, method, path, contentType, body, out)
}

func tenantPath(tenant, suffix string) string {
	return "/v1/tenants/" + url.PathEscape(tenant) + suffix
}

// Open opens a tenant session from its spec. It sends the spec's
// WithoutStream form: the demand stream of an instance spec
// (SetCoverSpec.Arrivals, SCLDSpec.Arrivals, FacilitySpec.Batches,
// SteinerSpec.Requests) is left out, because a served session never
// reads it and its events arrive through Submit. So an open costs the
// same however long the stream is. req itself is not modified: a caller
// can still build its local Replay reference from it.
func (c *Client) Open(ctx context.Context, tenant string, req wire.OpenRequest) error {
	var resp wire.OpenResponse
	return c.doJSON(ctx, http.MethodPost, tenantPath(tenant, ""), req.WithoutStream(), &resp)
}

// IsCode reports whether err is (or wraps) a wire error with the given
// code.
func IsCode(err error, code string) bool {
	var apiErr *wire.Error
	return errors.As(err, &apiErr) && apiErr.Code == code
}

// Submit enqueues events for the tenant, chunking at Options.Chunk and
// transparently retrying 429 backpressure: each retry resumes after the
// server's reported accepted count with exponentially growing backoff.
// It returns how many events the service accepted (all of them, unless
// the returned error is non-nil).
func (c *Client) Submit(ctx context.Context, tenant string, evs []wire.Event) (int, error) {
	total := 0
	for len(evs) > 0 {
		n := min(c.opts.Chunk, len(evs))
		accepted, err := c.submitChunk(ctx, tenant, evs[:n])
		total += accepted
		if err != nil {
			return total, err
		}
		evs = evs[n:]
	}
	return total, nil
}

// submitEvents posts one chunk: a JSON array by default, a binary
// frame body (magic + one frame) from a pooled buffer under
// Options.Binary.
func (c *Client) submitEvents(ctx context.Context, tenant string, evs []wire.Event, resp *wire.SubmitResponse) error {
	if !c.opts.Binary {
		return c.doJSON(ctx, http.MethodPost, tenantPath(tenant, "/events"), evs, resp)
	}
	payloadp := c.buf()
	defer c.bufs.Put(payloadp)
	payload, err := wire.AppendEventsBinaryWire((*payloadp)[:0], evs)
	if err != nil {
		return err
	}
	*payloadp = payload
	bodyp := c.buf()
	defer c.bufs.Put(bodyp)
	body := append((*bodyp)[:0], wire.BinaryMagic...)
	body = wire.AppendFrame(body, payload)
	*bodyp = body
	return c.do(ctx, http.MethodPost, tenantPath(tenant, "/events"),
		wire.ContentTypeBinary, bytes.NewReader(body), resp)
}

// buf takes a pooled encode buffer.
func (c *Client) buf() *[]byte {
	bufp, _ := c.bufs.Get().(*[]byte)
	if bufp == nil {
		bufp = new([]byte)
	}
	return bufp
}

func (c *Client) submitChunk(ctx context.Context, tenant string, chunk []wire.Event) (int, error) {
	done := 0
	bo := newBackoff(c.opts.RetryWait, tenantSeed(c.opts.JitterSeed, tenant))
	retries := 0
	for done < len(chunk) {
		remaining := chunk[done:]
		var resp wire.SubmitResponse
		err := c.submitEvents(ctx, tenant, remaining, &resp)
		if err == nil {
			done += resp.Accepted
			if resp.Accepted < len(remaining) {
				// Defensive: a 2xx must accept the whole remainder.
				return done, fmt.Errorf("client: submit accepted %d of %d without error", resp.Accepted, len(remaining))
			}
			continue
		}
		apiErr, ok := err.(*wire.Error)
		if !ok || apiErr.Code != wire.CodeBackpressure {
			return done + acceptedOf(err), err
		}
		done += apiErr.Accepted
		if apiErr.Accepted > 0 {
			retries = 0 // progress resets the budget and the backoff
			bo.reset()
		} else if retries++; retries > c.opts.MaxRetries {
			return done, fmt.Errorf("client: submit: %w after %d retries", apiErr, retries-1)
		}
		select {
		case <-time.After(bo.wait()):
		case <-ctx.Done():
			return done, ctx.Err()
		}
	}
	return done, nil
}

func acceptedOf(err error) int {
	var apiErr *wire.Error
	if errors.As(err, &apiErr) {
		return apiErr.Accepted
	}
	return 0
}

// Flush blocks until every event submitted before the call (any tenant)
// is processed and published — the read barrier.
func (c *Client) Flush(ctx context.Context, tenant string) error {
	var resp wire.FlushResponse
	return c.doJSON(ctx, http.MethodPost, tenantPath(tenant, "/flush"), nil, &resp)
}

// Close seals the tenant's session and returns its final totals.
func (c *Client) Close(ctx context.Context, tenant string) (wire.CloseResponse, error) {
	var resp wire.CloseResponse
	err := c.doJSON(ctx, http.MethodDelete, tenantPath(tenant, ""), nil, &resp)
	return resp, err
}

// Cost reads the tenant's cumulative cost breakdown.
func (c *Client) Cost(ctx context.Context, tenant string) (wire.CostBreakdown, error) {
	var resp wire.CostBreakdown
	err := c.doJSON(ctx, http.MethodGet, tenantPath(tenant, "/cost"), nil, &resp)
	return resp, err
}

// Processed reads how many of the tenant's events have been processed.
func (c *Client) Processed(ctx context.Context, tenant string) (int64, error) {
	var resp wire.EventsResponse
	err := c.doJSON(ctx, http.MethodGet, tenantPath(tenant, "/events"), nil, &resp)
	return resp.Processed, err
}

// Snapshot reads the tenant's current solution snapshot.
func (c *Client) Snapshot(ctx context.Context, tenant string) (wire.Solution, error) {
	var resp wire.Solution
	err := c.doJSON(ctx, http.MethodGet, tenantPath(tenant, "/snapshot"), nil, &resp)
	return resp, err
}

// Result reads the tenant's full recorded run (daemon must run with
// -record).
func (c *Client) Result(ctx context.Context, tenant string) (*wire.Run, error) {
	var resp wire.Run
	if err := c.doJSON(ctx, http.MethodGet, tenantPath(tenant, "/result"), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics samples the engine's counters (admin scope under auth).
func (c *Client) Metrics(ctx context.Context) (wire.Metrics, error) {
	var resp wire.Metrics
	err := c.doJSON(ctx, http.MethodGet, "/v1/metrics", nil, &resp)
	return resp, err
}

// Health probes liveness.
func (c *Client) Health(ctx context.Context) error {
	var resp wire.HealthResponse
	return c.doJSON(ctx, http.MethodGet, "/v1/healthz", nil, &resp)
}
