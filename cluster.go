package leasing

// The cluster face of the library, re-exported for cmd/leased and
// cmd/leaseload the way durable.go re-exports the durability layer.
// A clustered deployment is N identical daemons sharing one peer list:
// each builds the same consistent-hash ring (internal/cluster), serves
// the tenants the ring places on it, 307-redirects the rest, and ships
// every WAL record it appends to the tenant's replica — the next
// distinct node clockwise on the ring, exactly where the tenant lands
// if its owner is removed. Killing a node therefore fails its tenants
// over onto replicas already holding their full logged history, and
// the recovered state is byte-identical to an uninterrupted replay.
// docs/CLUSTER.md (generated from internal/cluster) documents
// placement, the shipping contract and the failover runbook.

import (
	"leasing/internal/client"
	"leasing/internal/cluster"
	"leasing/internal/server"
)

// ClusterRing is the consistent-hash ring every node and cluster client
// builds from the shared peer list: a tenant is owned by the first
// member clockwise from its hash, and its replica is the next distinct
// member.
type ClusterRing = cluster.Ring

// NewClusterRing builds the ring over the peer list with the default
// vnode count — the same ring daemons and clients build, exposed for
// placement introspection and capacity planning.
func NewClusterRing(peers []string) (*ClusterRing, error) {
	return cluster.New(peers, 0)
}

// ClusterShipper streams WAL records to each tenant's replica in the
// background; build one with NewClusterShipper and wrap it and the
// node's own log into a ReplicatedDurableLog.
type ClusterShipper = cluster.Shipper

// ClusterShipperOptions shapes a ClusterShipper: auth token, HTTP
// client, queue depth, batch size and retry policy.
type ClusterShipperOptions = cluster.ShipperOptions

// ClusterShipperStats samples a ClusterShipper's counters.
type ClusterShipperStats = cluster.ShipperStats

// NewClusterShipper builds the shipper for the node at self, which
// must appear in peers. Close it after the engine has drained so every
// acknowledged record reaches its replica.
func NewClusterShipper(self string, peers []string, opts ClusterShipperOptions) (*ClusterShipper, error) {
	return cluster.NewShipper(self, peers, opts)
}

// ReplicatedDurableLog is an EngineWAL that appends to the node's own
// DurableLog and ships each appended record to the tenant's replica.
type ReplicatedDurableLog = cluster.ReplicatedLog

// ReplicateDurableLog wraps a node's own log with a shipper; hand the
// result to RecoverEngineWAL and LeaseClusterConfig.WAL.
func ReplicateDurableLog(log *DurableLog, sh *ClusterShipper) *ReplicatedDurableLog {
	return cluster.NewReplicatedLog(log, sh)
}

// LeaseClusterConfig enables cluster mode on a lease server: placement
// redirects plus the replication ingest and failover activation
// endpoints. Set it as LeaseServerConfig.Cluster.
type LeaseClusterConfig = server.ClusterConfig

// RemoteCluster is the cluster-aware client: it routes each tenant to
// its ring owner, follows redirects on a stale member list, drives the
// MarkDown/Activate failover step, and resumes ingestion exactly where
// the (possibly new) owner left off.
type RemoteCluster = client.Cluster

// DialCluster builds a RemoteCluster over the peer list the daemons
// were started with.
func DialCluster(peers []string, opts RemoteClientOptions) (*RemoteCluster, error) {
	return client.NewCluster(peers, opts)
}

// RecoverEngineWAL is RecoverEngine with the engine's WAL decoupled
// from the recovery source: sessions are rebuilt from log, but the
// engine appends (and an activation pre-logs) through w — for a
// clustered node, the ReplicatedDurableLog wrapping that same log.
// Recovery itself never re-ships: restored sessions replay without
// logging, so a reboot does not re-send history the replicas already
// hold.
func RecoverEngineWAL(log *DurableLog, w EngineWAL, cfg EngineConfig) (*Engine, int, error) {
	cfg.WAL = w
	return recoverSessions(log, cfg)
}
