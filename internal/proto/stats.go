package proto

// ServerStats is the server-level counter set carried by a MsgStats
// response. The server fills it and the client decodes it; both sides name
// it through aliases (server.StatsSnapshot, client.ServerStats), so the
// field list and its wire order live only here.
type ServerStats struct {
	Conns         uint32 // current connections
	OpenTxns      uint32 // transactions currently holding a slot
	Commits       uint64 // positively acknowledged commits
	Aborts        uint64 // aborts, including conflict-failed commits
	GroupBatches  uint64 // group-commit wakeups
	GroupCommits  uint64 // commits acknowledged by those wakeups
	DurableOffset uint64 // engine durability horizon (0 if unavailable)

	// Replication (primary side: shipping; replica side these stay 0 and
	// the replica's own progress is reported by its process).
	ReplSubscribers   uint32 // live replication subscriptions
	ReplBatches       uint64 // batches shipped across all subscribers
	ReplShippedOffset uint64 // highest offset shipped to any subscriber
	ReplAckedOffset   uint64 // highest watermark acknowledged by any subscriber

	// Checkpoints counts checkpoint frames served successfully.
	Checkpoints uint64

	// Analytical query counters.
	ActiveQueries    uint32 // queries currently holding a snapshot + slot
	Queries          uint64 // queries opened since start
	QueryRows        uint64 // result rows streamed to clients
	QueriesCancelled uint64 // queries ended other than by stream completion

	// Sharding / two-phase-commit counters.
	PreparedTxns  uint32 // transactions currently parked in the prepared state
	ShardPrepares uint64 // prepare requests acknowledged
	ShardDecides  uint64 // decide requests applied (commit or abort)
}

// AppendServerStats appends st's positional encoding to dst. New counters
// append at the end so older decoders still parse the prefix they know.
func AppendServerStats(dst []byte, st *ServerStats) []byte {
	dst = AppendU32(dst, st.Conns)
	dst = AppendU32(dst, st.OpenTxns)
	dst = AppendU64(dst, st.Commits)
	dst = AppendU64(dst, st.Aborts)
	dst = AppendU64(dst, st.GroupBatches)
	dst = AppendU64(dst, st.GroupCommits)
	dst = AppendU64(dst, st.DurableOffset)
	dst = AppendU32(dst, st.ReplSubscribers)
	dst = AppendU64(dst, st.ReplBatches)
	dst = AppendU64(dst, st.ReplShippedOffset)
	dst = AppendU64(dst, st.ReplAckedOffset)
	dst = AppendU64(dst, st.Checkpoints)
	dst = AppendU32(dst, st.ActiveQueries)
	dst = AppendU64(dst, st.Queries)
	dst = AppendU64(dst, st.QueryRows)
	dst = AppendU64(dst, st.QueriesCancelled)
	dst = AppendU32(dst, st.PreparedTxns)
	dst = AppendU64(dst, st.ShardPrepares)
	return AppendU64(dst, st.ShardDecides)
}

// DecodeServerStats reads the encoding AppendServerStats writes.
func DecodeServerStats(d *Dec) (ServerStats, error) {
	st := ServerStats{
		Conns:             d.U32(),
		OpenTxns:          d.U32(),
		Commits:           d.U64(),
		Aborts:            d.U64(),
		GroupBatches:      d.U64(),
		GroupCommits:      d.U64(),
		DurableOffset:     d.U64(),
		ReplSubscribers:   d.U32(),
		ReplBatches:       d.U64(),
		ReplShippedOffset: d.U64(),
		ReplAckedOffset:   d.U64(),
		Checkpoints:       d.U64(),
		ActiveQueries:     d.U32(),
		Queries:           d.U64(),
		QueryRows:         d.U64(),
		QueriesCancelled:  d.U64(),
		PreparedTxns:      d.U32(),
		ShardPrepares:     d.U64(),
		ShardDecides:      d.U64(),
	}
	return st, d.Err()
}
