package transport

// Codec for the coordination messages (msg_coord.go). AppendEncode and
// Decode dispatch here from their default branches so the base-protocol
// hot path stays untouched.

func (w *writer) u64s(xs []uint64) {
	w.uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.u64(x)
	}
}

func (r *reader) u64s() []uint64 {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("implausible u64 count")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.u64())
	}
	return out
}

func (w *writer) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (r *reader) bytes() []byte {
	ln := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)-r.pos) < ln {
		r.fail("short bytes")
		return nil
	}
	out := make([]byte, ln)
	copy(out, r.buf[r.pos:r.pos+int(ln)])
	r.pos += int(ln)
	return out
}

func (w *writer) windowPartials(ps []WindowPartial) {
	w.uvarint(uint64(len(ps)))
	for _, p := range ps {
		w.i64(p.Start)
		w.i64(p.End)
		w.bytes(p.Data)
	}
}

func (r *reader) windowPartials() []WindowPartial {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("implausible partial count")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]WindowPartial, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, WindowPartial{Start: r.i64(), End: r.i64(), Data: r.bytes()})
	}
	return out
}

// shardStartBody encodes a ShardStart's fields; shared between the
// ShardStart arm and the replication log codec (RepEntry nests the wire
// registration verbatim, so both stay symmetric by construction).
func (w *writer) shardStartBody(t ShardStart) {
	w.u64(t.Seq)
	w.u64(t.Fence)
	w.u64(t.QueryID)
	w.str(t.Text)
	w.i64(t.StartNanos)
	w.i64(t.EndNanos)
	w.i64(t.ReplayNanos)
	w.u32(t.TotalHosts)
	w.u32(t.SampledHosts)
	w.f64(t.SampleEvents)
	w.f64(t.Confidence)
	w.u32(t.MaxRawRows)
	w.u32(t.MaxJoinPending)
	w.f64(t.BudgetCPUPct)
	w.f64(t.BudgetBytesPerSec)
	w.i64(t.LatenessNanos)
}

func (r *reader) shardStartBody() ShardStart {
	return ShardStart{
		Seq: r.u64(), Fence: r.u64(), QueryID: r.u64(), Text: r.str(),
		StartNanos: r.i64(), EndNanos: r.i64(), ReplayNanos: r.i64(),
		TotalHosts: r.u32(), SampledHosts: r.u32(),
		SampleEvents: r.f64(), Confidence: r.f64(),
		MaxRawRows: r.u32(), MaxJoinPending: r.u32(),
		BudgetCPUPct: r.f64(), BudgetBytesPerSec: r.f64(),
		LatenessNanos: r.i64(),
	}
}

func (w *writer) repEntry(e RepEntry) {
	w.u8(e.Kind)
	w.shardStartBody(e.Start)
	w.u32(e.PinEpoch)
	w.i64(e.ReplayDeadline)
	w.u64(e.QueryID)
	w.u32(e.MapEpoch)
	w.strs(e.Addrs)
}

func (r *reader) repEntry() RepEntry {
	return RepEntry{
		Kind: r.u8(), Start: r.shardStartBody(),
		PinEpoch: r.u32(), ReplayDeadline: r.i64(),
		QueryID: r.u64(), MapEpoch: r.u32(), Addrs: r.strs(),
	}
}

func (w *writer) repEntries(es []RepEntry) {
	w.uvarint(uint64(len(es)))
	for _, e := range es {
		w.repEntry(e)
	}
}

func (r *reader) repEntries() []RepEntry {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("implausible entry count")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]RepEntry, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.repEntry())
	}
	return out
}

func (w *writer) subBatch(t *ShardSubBatch) {
	w.u64(t.Seq)
	w.u64(t.QueryID)
	w.str(t.HostID)
	w.u8(t.TypeIdx)
	w.tuples(t.Tuples)
}

func (r *reader) subBatch() ShardSubBatch {
	return ShardSubBatch{
		Seq: r.u64(), QueryID: r.u64(), HostID: r.str(), TypeIdx: r.u8(),
		Tuples: r.tuples(),
	}
}

// appendEncodeCoord encodes the coordination messages; it reports false
// for messages it does not know (the caller errors).
func appendEncodeCoord(w *writer, m Message) bool {
	switch t := m.(type) {
	case ShardStart:
		w.shardStartBody(t)
	case ShardAck:
		w.u64(t.Seq)
		w.str(t.Err)
	case ShardSubBatch:
		w.subBatch(&t)
	case *ShardSubBatch:
		w.subBatch(t) // by pointer, a sender's sub-batch is not boxed per frame
	case ShardBatchAck:
		w.u64(t.Seq)
		w.bool(t.Known)
		w.bool(t.HasTs)
		w.i64(t.MaxTs)
		w.u64(t.LateDelta)
		w.u64(t.Late)
		w.u64(t.Overflow)
	case ShardCollectReq:
		w.u64(t.Seq)
		w.u64(t.Fence)
		w.u64(t.QueryID)
		w.i64(t.Bound)
	case ShardPartials:
		w.u64(t.Seq)
		w.bool(t.Stale)
		w.bool(t.Found)
		w.windowPartials(t.Partials)
		w.u64(t.Late)
		w.u64(t.Overflow)
	case ShardStopReq:
		w.u64(t.Seq)
		w.u64(t.Fence)
		w.u64(t.QueryID)
	case ShardStatsReq:
		w.u64(t.Seq)
		w.u64(t.QueryID)
	case ShardStatsResp:
		w.u64(t.Seq)
		w.bool(t.Found)
		w.u64(t.TuplesIn)
		w.u32(t.ActiveQueries)
	case BatchManifest:
		w.u64(t.Seq)
		w.u64(t.QueryID)
		w.str(t.HostID)
		w.u8(t.TypeIdx)
		w.u64(t.RawTuples)
		w.bool(t.HasTs)
		w.i64(t.MaxTs)
		w.u64(t.LateDelta)
		w.u64s(t.ShardLate)
		w.u64s(t.ShardOverflow)
		w.u64(t.MatchedTotal)
		w.u64(t.SampledTotal)
		w.u64(t.QueueDrops)
		w.f64(t.EffRate)
		w.bool(t.BudgetShed)
		w.u64(t.CPUNs)
		w.u64(t.ShipBytes)
		w.u32(t.ReplayEpoch)
		w.bool(t.ReplayDone)
	case ManifestAck:
		w.u64(t.Seq)
	case ShardHello:
		w.str(t.ShardID)
		w.str(t.DataAddr)
	case ShardMap:
		w.u32(t.Epoch)
		w.u64(t.Fence)
		w.strs(t.Addrs)
	case ShardStatusReq:
		// no payload
	case ShardStatusList:
		w.u32(t.Epoch)
		w.u64(t.Merges)
		w.u64(t.Rebalances)
		w.u32(t.EvictedStreams)
		w.uvarint(uint64(len(t.Shards)))
		for _, s := range t.Shards {
			w.u32(s.Index)
			w.str(s.Addr)
			w.bool(s.Down)
			w.i64(s.LagNanos)
			w.u32(s.ActiveQueries)
			w.u64(s.TuplesIn)
		}
	case ShardFence:
		w.u64(t.Seq)
		w.u64(t.Fence)
	case ShardFenceAck:
		w.u64(t.Seq)
		w.u64(t.Fence)
		w.bool(t.Ok)
		w.u64s(t.Queries)
	case RepAppend:
		w.u64(t.Seq)
		w.u64(t.Term)
		w.u64(t.Index)
		w.repEntries(t.Entries)
	case RepAck:
		w.u64(t.Seq)
		w.u64(t.Term)
		w.u64(t.Index)
		w.bool(t.Ok)
	default:
		return false
	}
	return true
}

// decodeCoord decodes the coordination messages by tag; it reports false
// for tags it does not know (the caller errors).
func decodeCoord(tag byte, r *reader) (Message, bool) {
	switch tag {
	case tagShardStart:
		return r.shardStartBody(), true
	case tagShardAck:
		return ShardAck{Seq: r.u64(), Err: r.str()}, true
	case tagShardSubBatch:
		sb := r.subBatch()
		if r.sc != nil {
			// Handed out by pointer into the scratch: boxing the struct
			// would be the one allocation left per frame.
			r.sc.sub = sb
			return &r.sc.sub, true
		}
		return sb, true
	case tagShardBatchAck:
		return ShardBatchAck{
			Seq: r.u64(), Known: r.boolv(), HasTs: r.boolv(), MaxTs: r.i64(),
			LateDelta: r.u64(), Late: r.u64(), Overflow: r.u64(),
		}, true
	case tagShardCollectReq:
		return ShardCollectReq{Seq: r.u64(), Fence: r.u64(), QueryID: r.u64(), Bound: r.i64()}, true
	case tagShardPartials:
		return ShardPartials{
			Seq: r.u64(), Stale: r.boolv(), Found: r.boolv(), Partials: r.windowPartials(),
			Late: r.u64(), Overflow: r.u64(),
		}, true
	case tagShardStopReq:
		return ShardStopReq{Seq: r.u64(), Fence: r.u64(), QueryID: r.u64()}, true
	case tagShardStatsReq:
		return ShardStatsReq{Seq: r.u64(), QueryID: r.u64()}, true
	case tagShardStatsResp:
		return ShardStatsResp{
			Seq: r.u64(), Found: r.boolv(),
			TuplesIn: r.u64(), ActiveQueries: r.u32(),
		}, true
	case tagBatchManifest:
		return BatchManifest{
			Seq: r.u64(), QueryID: r.u64(), HostID: r.str(), TypeIdx: r.u8(),
			RawTuples: r.u64(), HasTs: r.boolv(), MaxTs: r.i64(),
			LateDelta: r.u64(), ShardLate: r.u64s(), ShardOverflow: r.u64s(),
			MatchedTotal: r.u64(), SampledTotal: r.u64(), QueueDrops: r.u64(),
			EffRate: r.f64(), BudgetShed: r.boolv(),
			CPUNs: r.u64(), ShipBytes: r.u64(),
			ReplayEpoch: r.u32(), ReplayDone: r.boolv(),
		}, true
	case tagManifestAck:
		return ManifestAck{Seq: r.u64()}, true
	case tagShardHello:
		return ShardHello{ShardID: r.str(), DataAddr: r.str()}, true
	case tagShardMap:
		return ShardMap{Epoch: r.u32(), Fence: r.u64(), Addrs: r.strs()}, true
	case tagShardStatusReq:
		return ShardStatusReq{}, true
	case tagShardStatusList:
		sl := ShardStatusList{
			Epoch: r.u32(), Merges: r.u64(), Rebalances: r.u64(),
			EvictedStreams: r.u32(),
		}
		n := r.uvarint()
		if n > uint64(len(r.buf)) {
			r.fail("implausible shard count")
		}
		if r.err == nil && n > 0 {
			sl.Shards = make([]ShardStatus, 0, n)
			for i := uint64(0); i < n && r.err == nil; i++ {
				sl.Shards = append(sl.Shards, ShardStatus{
					Index: r.u32(), Addr: r.str(), Down: r.boolv(),
					LagNanos: r.i64(), ActiveQueries: r.u32(), TuplesIn: r.u64(),
				})
			}
		}
		return sl, true
	case tagShardFence:
		return ShardFence{Seq: r.u64(), Fence: r.u64()}, true
	case tagShardFenceAck:
		return ShardFenceAck{
			Seq: r.u64(), Fence: r.u64(), Ok: r.boolv(), Queries: r.u64s(),
		}, true
	case tagRepAppend:
		return RepAppend{
			Seq: r.u64(), Term: r.u64(), Index: r.u64(), Entries: r.repEntries(),
		}, true
	case tagRepAck:
		return RepAck{Seq: r.u64(), Term: r.u64(), Index: r.u64(), Ok: r.boolv()}, true
	default:
		return nil, false
	}
}
