package engine

// ShardMetrics is one shard's counter sample: cumulative totals since
// New, except QueueDepth which is instantaneous.
type ShardMetrics struct {
	// Shard is the shard's index.
	Shard int `json:"shard"`
	// Sessions is the number of open sessions the shard owns.
	Sessions int `json:"sessions"`
	// Events counts events successfully processed.
	Events int64 `json:"events"`
	// Batches counts processing wakes (queue drains); Events/Batches is
	// the achieved batching factor.
	Batches int64 `json:"batches"`
	// Dropped counts events discarded because their tenant was unknown
	// or its session had failed.
	Dropped int64 `json:"dropped"`
	// QueueDepth is the number of queued operations at sample time.
	QueueDepth int `json:"queue_depth"`
	// Cost is the sum of the shard's sessions' cumulative costs, added
	// in tenant-name order.
	Cost float64 `json:"cost"`
}

// Metrics aggregates the per-shard samples engine-wide.
type Metrics struct {
	Shards     []ShardMetrics `json:"shards"`
	Sessions   int            `json:"sessions"`
	Events     int64          `json:"events"`
	Batches    int64          `json:"batches"`
	Dropped    int64          `json:"dropped"`
	QueueDepth int            `json:"queue_depth"`
	Cost       float64        `json:"cost"`
}
