package main

// In-process loopback nodes, each wired the way cmd/leased wires a
// daemon with its default flags (8 shards, queue 256, batch 64, no
// -record) and built only from the library's public constructors. A
// durable node adds what cmd/leased -data-dir -fsync -peers adds: an
// fsync-on own WAL wrapped by a log shipper, an fsync-on follower WAL
// and cluster placement.
//
// Nodes are addressed by stable names (http://node0.servebench, ...)
// that the transports resolve to the listeners' real addresses, so the
// consistent-hash ring — which hashes the peer URLs — places every
// tenant on the same node in every run.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"leasing"
	"leasing/internal/wire"
)

// engineConfig is cmd/leased's default engine: -shards 8 -queue 256
// -batch 64, runs not recorded.
var engineConfig = leasing.EngineConfig{Shards: 8, QueueDepth: 256, BatchSize: 64}

// remote is the client surface the load uses; the single-node client
// and the ring-routing cluster client both provide it.
type remote interface {
	Open(ctx context.Context, tenant string, req leasing.RemoteOpenRequest) error
	Submit(ctx context.Context, tenant string, evs []leasing.RemoteEvent) (int, error)
	Snapshot(ctx context.Context, tenant string) (wire.Solution, error)
	Cost(ctx context.Context, tenant string) (wire.CostBreakdown, error)
	Processed(ctx context.Context, tenant string) (int64, error)
}

// node is one in-process lease service.
type node struct {
	url    string // stable name, as in the peer list
	dir    string // durable nodes: the data directory
	ln     net.Listener
	srv    *http.Server
	served chan error // srv.Serve's return
	eng    *leasing.Engine
	own    *leasing.DurableLog
	follow *leasing.DurableLog
	sh     *leasing.ClusterShipper
	closed bool
}

// fleet is a round's nodes and the client driving them.
type fleet struct {
	nodes   []*node
	addrs   map[string]string // "nodeN.servebench:80" -> listener address
	client  remote
	cluster *leasing.RemoteCluster // durable fleets: the ring-routing client
	tr      *http.Transport        // client connections
	shipTr  *http.Transport        // shipper connections
}

// dial resolves the stable node names to the listeners.
func (f *fleet) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	real, ok := f.addrs[addr]
	if !ok {
		return nil, fmt.Errorf("servebench: no node at %s", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, real)
}

// transport is a pooled transport to the fleet's nodes with at most
// conns connections per node.
func (f *fleet) transport(conns int) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.DialContext = f.dial
	if conns > 0 {
		tr.MaxConnsPerHost, tr.MaxIdleConnsPerHost = conns, conns
	}
	return tr
}

// startFleet starts w's nodes under dir (durable workloads only) and
// dials them. producers bounds the client connections per node.
func startFleet(w workload, dir string, p *probe, producers int) (f *fleet, err error) {
	f = &fleet{addrs: map[string]string{}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	peers := make([]string, w.nodes)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("node%d.servebench", i)
		peers[i] = "http://" + name
		f.addrs[name+":80"] = ln.Addr().String()
		f.nodes = append(f.nodes, &node{url: peers[i], ln: ln})
	}
	f.tr = f.transport(producers)
	// cmd/leased ships over the default client; this one differs only in
	// resolving the node names.
	f.shipTr = f.transport(0)
	for i, nd := range f.nodes {
		scfg := leasing.LeaseServerConfig{Builder: p.builder}
		if w.durable() {
			nd.dir = filepath.Join(dir, fmt.Sprintf("node%d", i))
			ewal, err := nd.openDurable(peers, p.httpClient(f.shipTr, "cluster.ship"))
			if err != nil {
				return nil, err
			}
			if p.traced() {
				ewal = tracedWAL{EngineWAL: ewal, p: p}
			}
			if nd.eng, _, err = leasing.RecoverEngineWAL(nd.own, ewal, engineConfig); err != nil {
				return nil, err
			}
			scfg.WALStats = nd.own.Stats
			scfg.Cluster = &leasing.LeaseClusterConfig{
				Self: nd.url, Peers: peers, Follower: nd.follow, WAL: ewal, ShipperStats: nd.sh.Stats,
			}
		} else {
			nd.eng = leasing.NewEngine(engineConfig)
		}
		nd.srv = &http.Server{Handler: p.handler(leasing.Serve(nd.eng, scfg))}
		nd.served = make(chan error, 1)
		go func(nd *node) { nd.served <- nd.srv.Serve(nd.ln) }(nd)
	}
	opts := leasing.RemoteClientOptions{Binary: true, Chunk: w.chunk, HTTPClient: p.httpClient(f.tr, "client.http")}
	if w.durable() {
		if f.cluster, err = leasing.DialCluster(peers, opts); err != nil {
			return nil, err
		}
		f.client = f.cluster
	} else {
		f.client = leasing.Dial(peers[0], opts)
	}
	return f, nil
}

// openDurable opens the node's own and follower logs and its shipper,
// and returns the replicated log the engine appends through.
func (nd *node) openDurable(peers []string, ship *http.Client) (leasing.EngineWAL, error) {
	var err error
	if nd.own, err = leasing.OpenDurableLog(nd.dir, leasing.DurableLogOptions{Fsync: true}); err != nil {
		return nil, err
	}
	if nd.follow, err = leasing.OpenDurableLog(filepath.Join(nd.dir, "follower"), leasing.DurableLogOptions{Fsync: true}); err != nil {
		return nil, err
	}
	if nd.sh, err = leasing.NewClusterShipper(nd.url, peers, leasing.ClusterShipperOptions{HTTPClient: ship}); err != nil {
		return nil, err
	}
	return leasing.ReplicateDurableLog(nd.own, nd.sh), nil
}

// flush is the apply barrier: every engine has applied everything
// submitted before the call.
func (f *fleet) flush() error {
	for _, nd := range f.nodes {
		if err := nd.eng.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// flushShippers blocks until every shipper has delivered everything
// queued.
func (f *fleet) flushShippers() {
	for _, nd := range f.nodes {
		if nd.sh != nil {
			nd.sh.Flush()
		}
	}
}

// stop drains one node in cmd/leased's order — HTTP, engine, shipper,
// follower log, own log — and waits for its server goroutine.
func (nd *node) stop() error {
	if nd.closed {
		return nil
	}
	nd.closed = true
	var errs []error
	if nd.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, nd.srv.Shutdown(ctx))
		cancel()
		if err := <-nd.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	} else {
		nd.ln.Close()
	}
	if nd.eng != nil {
		errs = append(errs, nd.eng.Close())
	}
	if nd.sh != nil {
		nd.sh.Close()
		if st := nd.sh.Stats(); len(st.FailedPeers) > 0 {
			errs = append(errs, fmt.Errorf("%s: shipping failed to %v (%d records dropped)", nd.url, st.FailedPeers, st.Dropped))
		}
	}
	if nd.follow != nil {
		errs = append(errs, nd.follow.Close())
	}
	if nd.own != nil {
		errs = append(errs, nd.own.Close())
	}
	return errors.Join(errs...)
}

// close stops every node still running and drops idle connections.
func (f *fleet) close() error {
	var errs []error
	for _, nd := range f.nodes {
		errs = append(errs, nd.stop())
	}
	for _, tr := range []*http.Transport{f.tr, f.shipTr} {
		if tr != nil {
			tr.CloseIdleConnections()
		}
	}
	return errors.Join(errs...)
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
