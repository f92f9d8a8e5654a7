// Command leased is the network-facing lease service: an HTTP/JSON
// daemon fronting the sharded multi-tenant engine. Remote tenants open
// sessions from instance specs (without the demand stream, which a
// served session never reads), stream demands in (JSON arrays — the
// trace format cmd/leasegen writes — or, chosen per request by
// Content-Type, the compact application/x-lease-binary framing, which
// the daemon decodes on a pooled zero-allocation path),
// and read costs, snapshots and recorded runs back as JSON; shard-queue
// backpressure surfaces as 429s and SIGINT/SIGTERM triggers a graceful
// drain (stop accepting requests, process everything queued, publish
// final state, exit 0). With -data-dir the daemon is durable: every
// acknowledged open, event batch and close is write-ahead logged before
// it is acknowledged, and on boot every logged session is recovered —
// so a crash (even SIGKILL) loses nothing acknowledged. docs/API.md
// documents the protocol, docs/DURABILITY.md the log format and
// recovery semantics, and docs/OPERATIONS.md the operational knobs;
// cmd/leaseload -addr load-tests a running daemon, and cmd/leaseload
// -leased spawns this binary (with -kill, the kill-and-recover drill).
//
// With -peers (a comma-separated list of every node's base URL) and
// -self (this node's URL in that list) the daemon joins a cluster:
// tenants are placed on nodes by a shared consistent-hash ring,
// requests for foreign tenants answer 307 to the owner, and every WAL
// record this node appends is streamed to the tenant's replica — the
// next node clockwise on the ring — so killing a node fails its
// tenants over with their full logged history already in place.
// Cluster mode requires -data-dir (the follower log lives under it);
// docs/CLUSTER.md documents placement, replication and the failover
// runbook, and cmd/leaseload -leased BIN -nodes 3 -wal fsync -kill
// drills it.
//
// Usage:
//
//	leased [-addr :8080] [-shards 8] [-queue 256] [-batch 64] [-record] [-auth tokens.txt]
//	       [-data-dir DIR] [-fsync] [-compact-every N]
//	       [-peers URL,URL,...] [-self URL] [-peer-token TOKEN]
//
// The -auth file enables per-tenant token scoping: one "token tenant"
// pair per line ('#' comments), where tenant "*" is the admin scope.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"leasing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "leased:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("leased", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		shards   = fs.Int("shards", 8, "engine shards (goroutines sessions are hashed across)")
		queue    = fs.Int("queue", 256, "engine per-shard queue depth; a full queue turns submits into 429s")
		batch    = fs.Int("batch", 64, "engine batch size (events drained per shard wake)")
		record   = fs.Bool("record", false, "record full per-session runs so the result endpoint works")
		authPath = fs.String("auth", "", "token file enabling per-tenant auth: one 'token tenant' pair per line, tenant '*' is the admin scope")
		drainFor = fs.Duration("drain", 10*time.Second, "how long shutdown waits for in-flight requests before forcing the drain")
		dataDir  = fs.String("data-dir", "", "write-ahead-log directory enabling durability; sessions are recovered from it on boot (empty disables)")
		fsync    = fs.Bool("fsync", false, "with -data-dir: fsync the log before acknowledging (group-committed); survives machine crashes, not just process crashes")
		compact  = fs.Int64("compact-every", 0, "with -data-dir: compact the log after this many appended records (0 disables automatic compaction)")
		peersCSV = fs.String("peers", "", "comma-separated base URLs of every cluster node (including this one); enables cluster mode and requires -self and -data-dir")
		self     = fs.String("self", "", "with -peers: this node's base URL exactly as it appears in the peer list")
		peerTok  = fs.String("peer-token", "", "with -peers: admin bearer token sent with shipped records (required when peers run -auth)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 || *queue < 1 || *batch < 1 {
		return fmt.Errorf("-shards, -queue and -batch must be >= 1")
	}
	if *compact < 0 {
		return fmt.Errorf("-compact-every must be >= 0")
	}
	if *dataDir == "" && (*fsync || *compact > 0) {
		return fmt.Errorf("-fsync and -compact-every require -data-dir")
	}
	var peers []string
	if *peersCSV != "" {
		for _, p := range strings.Split(*peersCSV, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		if *self == "" {
			return fmt.Errorf("-peers requires -self")
		}
		if *dataDir == "" {
			return fmt.Errorf("-peers requires -data-dir (replication ships WAL records)")
		}
	} else if *self != "" || *peerTok != "" {
		return fmt.Errorf("-self and -peer-token require -peers")
	}
	tokens, err := loadAuth(*authPath)
	if err != nil {
		return err
	}

	logger := log.New(w, "leased: ", log.LstdFlags)
	cfg := leasing.EngineConfig{
		Shards:     *shards,
		QueueDepth: *queue,
		BatchSize:  *batch,
		RecordRuns: *record,
	}
	var eng *leasing.Engine
	var wlog, follower *leasing.DurableLog
	var shipper *leasing.ClusterShipper
	var replicated *leasing.ReplicatedDurableLog
	if *dataDir != "" {
		wlog, err = leasing.OpenDurableLog(*dataDir, leasing.DurableLogOptions{
			Fsync:        *fsync,
			CompactEvery: *compact,
		})
		if err != nil {
			return err
		}
		// The engine's WAL: the log itself, or — clustered — the log
		// wrapped with a shipper that streams each appended record to
		// the tenant's replica. Recovery replays without logging, so a
		// reboot never re-ships history the replicas already hold.
		var ewal leasing.EngineWAL = wlog
		if len(peers) > 0 {
			follower, err = leasing.OpenDurableLog(filepath.Join(*dataDir, "follower"), leasing.DurableLogOptions{
				Fsync: *fsync,
			})
			if err != nil {
				wlog.Close()
				return err
			}
			shipper, err = leasing.NewClusterShipper(*self, peers, leasing.ClusterShipperOptions{Token: *peerTok})
			if err != nil {
				follower.Close()
				wlog.Close()
				return err
			}
			replicated = leasing.ReplicateDurableLog(wlog, shipper)
			ewal = replicated
		}
		var recovered int
		eng, recovered, err = leasing.RecoverEngineWAL(wlog, ewal, cfg)
		if err != nil {
			if shipper != nil {
				shipper.Close()
			}
			if follower != nil {
				follower.Close()
			}
			wlog.Close()
			return err
		}
		m := eng.Metrics()
		logger.Printf("recovered %d sessions (%d events) from %s", recovered, m.Events, *dataDir)
	} else {
		eng = leasing.NewEngine(cfg)
	}
	closeAll := func() {
		eng.Close()
		if shipper != nil {
			shipper.Close()
		}
		if follower != nil {
			follower.Close()
		}
		if wlog != nil {
			wlog.Close()
		}
	}
	scfg := leasing.LeaseServerConfig{Tokens: tokens}
	if wlog != nil {
		// Durable daemons expose the log's counters on the Prometheus
		// scrape alongside the engine families.
		scfg.WALStats = wlog.Stats
	}
	if len(peers) > 0 {
		scfg.Cluster = &leasing.LeaseClusterConfig{
			Self:         *self,
			Peers:        peers,
			Follower:     follower,
			WAL:          replicated,
			ShipperStats: shipper.Stats,
		}
	}
	handler := leasing.Serve(eng, scfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		closeAll()
		return err
	}
	logger.Printf("listening on %s (shards=%d queue=%d batch=%d record=%v auth=%v durable=%v fsync=%v cluster=%d)",
		ln.Addr(), *shards, *queue, *batch, *record, len(tokens) > 0, *dataDir != "", *fsync, len(peers))
	if len(peers) > 0 {
		logger.Printf("cluster mode: self=%s peers=%s", *self, strings.Join(peers, ","))
	}

	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		closeAll()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting requests, let in-flight ones
	// finish, then close the engine — which processes everything already
	// queued and publishes final state before stopping its shards.
	logger.Printf("signal received, draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := eng.Close(); err != nil {
		return err
	}
	m := eng.Metrics()
	logger.Printf("drained: %d sessions, %d events processed, %d dropped, total cost %.2f",
		m.Sessions, m.Events, m.Dropped, m.Cost)
	// Clustered drain ordering: the engine has stopped appending, so
	// closing the shipper flushes every acknowledged record to its
	// replica before the logs close beneath it.
	if shipper != nil {
		shipper.Close()
		st := shipper.Stats()
		logger.Printf("shipper closed: %d records in %d batches shipped, %d dropped, failed peers: %v",
			st.Shipped, st.Batches, st.Dropped, st.FailedPeers)
	}
	if follower != nil {
		if err := follower.Close(); err != nil {
			return err
		}
	}
	if wlog != nil {
		st := wlog.Stats()
		if err := wlog.Close(); err != nil {
			return err
		}
		logger.Printf("wal closed: %d appends, %d syncs, %d compactions (segment %08d)",
			st.Appends, st.Syncs, st.Compactions, st.Segment)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// loadAuth parses the -auth token file: one "token tenant" pair per
// line, blank lines and '#' comments skipped. An empty path disables
// auth.
func loadAuth(path string) (map[string]string, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tokens := map[string]string{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want 'token tenant', got %q", path, line, text)
		}
		if _, dup := tokens[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate token", path, line)
		}
		tokens[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tokens) == 0 {
		return nil, fmt.Errorf("%s: no tokens (auth would be disabled implicitly)", path)
	}
	return tokens, nil
}
