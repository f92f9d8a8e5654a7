package server_test

// Sustained-backpressure parity: a deliberately starved engine (one
// shard, queue depth 1) is rammed by concurrent tenants through the
// real client, so nearly every submit round-trips through a 429 with a
// partial accepted count. The check is exactness under that stress —
// every tenant's processed count matches what it sent (no duplicates
// from re-submitting an accepted prefix, no drops from skipping an
// unaccepted suffix), and each recorded run stays byte-identical to a
// single-threaded Replay. A saturated daemon must degrade to waiting,
// never to wrong answers.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leasing/internal/client"
	"leasing/internal/engine"
	"leasing/internal/server"
	"leasing/internal/stream"
	"leasing/internal/wire"
)

// slowLeaser delegates to the real domain leaser but naps on every
// event, so the starved queue stays full and 429s are guaranteed
// rather than a scheduling accident. Decisions are untouched — parity
// still holds.
type slowLeaser struct {
	stream.Leaser
	nap time.Duration
}

func (s slowLeaser) Observe(ev stream.Event) (stream.Decision, error) {
	time.Sleep(s.nap)
	return s.Leaser.Observe(ev)
}

// backpressureCounter counts 429 responses flowing through the client.
type backpressureCounter struct {
	base http.RoundTripper
	hits atomic.Int64
}

func (c *backpressureCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		c.hits.Add(1)
	}
	return resp, err
}

// TestSubmitExactUnderSustainedBackpressure ramps concurrent tenants
// into a starved engine and holds every session to exact ingestion and
// replay parity.
func TestSubmitExactUnderSustainedBackpressure(t *testing.T) {
	const (
		tenants = 6
		perTen  = 300
	)
	eng := engine.New(engine.Config{Shards: 1, BatchSize: 1, QueueDepth: 1, RecordRuns: true})
	ts := httptest.NewServer(server.New(eng, server.Config{
		ChunkSize: 4,
		Builder: func(r *wire.OpenRequest) (stream.Leaser, error) {
			ref, err := r.Build()
			if err != nil {
				return nil, err
			}
			return slowLeaser{Leaser: ref, nap: 20 * time.Microsecond}, nil
		},
	}))
	defer func() {
		ts.Close()
		eng.Close()
	}()

	counter := &backpressureCounter{base: http.DefaultTransport}
	cli := client.New(ts.URL, client.Options{
		Chunk:      7,
		RetryWait:  50 * time.Microsecond,
		MaxRetries: 10000,
		HTTPClient: &http.Client{Transport: counter},
	})
	ctx := context.Background()

	evs := dayEvents(times(perTen)...)
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	accepted := make([]int, tenants)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if err := cli.Open(ctx, name, parkingOpen()); err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			accepted[i], errs[i] = cli.Submit(ctx, name, evs)
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant-%d: submit: %v", i, err)
		}
		if accepted[i] != perTen {
			t.Fatalf("tenant-%d: client reports %d accepted, want %d", i, accepted[i], perTen)
		}
	}
	if counter.hits.Load() == 0 {
		t.Fatal("no 429s observed: the engine was not starved, test proves nothing")
	}
	t.Logf("%d backpressure rejections across %d events", counter.hits.Load(), tenants*perTen)

	if err := cli.Flush(ctx, "tenant-0"); err != nil {
		t.Fatal(err)
	}

	// The replay reference: the same events through a fresh leaser,
	// single-threaded.
	sevs := make([]stream.Event, len(evs))
	for i, ev := range evs {
		sev, err := ev.Stream()
		if err != nil {
			t.Fatal(err)
		}
		sevs[i] = sev
	}
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		processed, err := cli.Processed(ctx, name)
		if err != nil {
			t.Fatalf("%s: processed: %v", name, err)
		}
		if processed != perTen {
			t.Errorf("%s: processed %d events, want exactly %d (duplicate or drop under backpressure)", name, processed, perTen)
		}
		wrun, err := cli.Result(ctx, name)
		if err != nil {
			t.Fatalf("%s: result: %v", name, err)
		}
		spec := parkingOpen()
		ref, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := stream.Replay(ref, sevs)
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := fmt.Sprintf("%#v", wrun.Stream()), fmt.Sprintf("%#v", want); got != exp {
			t.Errorf("%s: run diverged from single-threaded replay under backpressure:\ngot  %s\nwant %s", name, got, exp)
		}
	}

	// The scrape agrees that the submit endpoint saw rejections.
	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Events != tenants*perTen {
		t.Errorf("engine processed %d events, want %d", m.Events, tenants*perTen)
	}
}

func times(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}
