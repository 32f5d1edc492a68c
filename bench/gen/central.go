package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"scrub/internal/event"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// Shape of the central workloads' input. One round is every simulated
// host shipping one batch per query stream over the same RoundNanos slice
// of event time; five rounds fill one 250 ms window, so a window holds
// 20k tuples per bid query — as much state as the run length allows while
// still closing the 400+ windows per run the lag percentiles need. A
// cycle is four windows.
const (
	CentralHosts       = 8
	CentralBatchTuples = 512
	CentralCycleRounds = 20
	CentralRoundNanos  = int64(50 * time.Millisecond)
)

// CentralBatch is one pre-built tuple batch of the cycle. Tuples carry
// cycle-relative request ordinals and timestamps; StampInto rebases them.
type CentralBatch struct {
	Query   int // index into CentralInput.Queries
	Host    int
	TypeIdx uint8
	Tuples  []transport.Tuple
	// Cum is the stream's (query, type, host) tuple count through this batch
	// within one cycle and PerCycle its count over a whole cycle: the
	// cumulative matched total a host would report with the batch.
	Cum, PerCycle uint64
}

// CentralInput is the content of central-mixed and central-sharded (both
// consume it unchanged — same Hash): CentralCycleRounds rounds of batches,
// fed cyclically. Immutable after generation.
type CentralInput struct {
	Queries []CentralQuery
	Plans   []*ql.Plan
	Hosts   []string
	// Rounds[r] is round r's batches in feed order: query-major, then
	// event type, then host, so the batches that complete a window for a
	// query arrive back to back.
	Rounds [][]CentralBatch
	Hash   string

	roundTuples [][]uint64 // [round][query] tuples fed
	roundCount  [][]uint64 // [round][query] rows count(*) must total
}

// Central generates the central workloads' cycle.
func Central(seed int64) (*CentralInput, error) {
	src := newSource(seed)
	cat := Catalog()
	in := &CentralInput{Queries: CentralQueries()}
	for _, q := range in.Queries {
		parsed, err := ql.Parse(q.Text)
		if err != nil {
			return nil, fmt.Errorf("gen: %s: %w", q.Name, err)
		}
		plan, err := ql.Analyze(parsed, cat)
		if err != nil {
			return nil, fmt.Errorf("gen: %s: %w", q.Name, err)
		}
		in.Plans = append(in.Plans, plan)
	}
	for h := 0; h < CentralHosts; h++ {
		in.Hosts = append(in.Hosts, fmt.Sprintf("bench-host-%d", h))
	}

	type request struct {
		bid  []event.Value
		excl [][]event.Value
		proj map[string][]event.Value
	}
	project := func(req *request, schema *event.Schema, vals []event.Value, cols []string) []event.Value {
		if len(cols) == 0 {
			return nil
		}
		key := schema.Name() + ":" + strings.Join(cols, ",")
		if schema == BidSchema {
			if out, ok := req.proj[key]; ok {
				return out
			}
		}
		out := make([]event.Value, len(cols))
		for i, c := range cols {
			out[i] = vals[schema.FieldIndex(c)]
		}
		if schema == BidSchema {
			req.proj[key] = out
		}
		return out
	}

	h := sha256.New()
	step := CentralRoundNanos / CentralBatchTuples
	for r := 0; r < CentralCycleRounds; r++ {
		// Draw the round's requests: per host, CentralBatchTuples bids and
		// as many exclusions, each attached to a random bid of the same
		// host and round (so it joins inside the bid's window).
		reqs := make([][]request, CentralHosts)
		for host := range reqs {
			reqs[host] = make([]request, CentralBatchTuples)
			for j := range reqs[host] {
				reqs[host][j] = request{bid: src.bidValues(src.user()), proj: map[string][]event.Value{}}
			}
			for k := 0; k < CentralBatchTuples; k++ {
				req := &reqs[host][src.rng.Intn(CentralBatchTuples)]
				req.excl = append(req.excl, src.exclusionValues(req.bid[fExchange]))
			}
		}
		tuples := make([]uint64, len(in.Queries))
		counts := make([]uint64, len(in.Queries))
		var round []CentralBatch
		for qi, plan := range in.Plans {
			for ti, schema := range plan.Schemas {
				cols := plan.Columns[schema.Name()]
				for host := range reqs {
					b := CentralBatch{Query: qi, Host: host, TypeIdx: uint8(ti)}
					for j := range reqs[host] {
						req := &reqs[host][j]
						user, _ := req.bid[fUser].AsInt()
						t := transport.Tuple{
							RequestID: RequestID(uint64((r*CentralHosts+host)*CentralBatchTuples+j), uint64(user)),
							TsNanos:   int64(r)*CentralRoundNanos + int64(j)*step,
						}
						switch {
						case schema == ExclusionSchema:
							for _, ex := range req.excl {
								t.Values = project(req, schema, ex, cols)
								b.Tuples = append(b.Tuples, t)
							}
						case in.Queries[qi].Name == "raw" && !rawMatch(req.bid):
						default:
							t.Values = project(req, schema, req.bid, cols)
							b.Tuples = append(b.Tuples, t)
						}
					}
					tuples[qi] += uint64(len(b.Tuples))
					// count(*) totals the rows accumulated: every tuple for a
					// single-type query, every (bid, exclusion) pair for the
					// join — one per exclusion, as each has exactly one bid.
					if !plan.IsJoin() || schema == ExclusionSchema {
						counts[qi] += uint64(len(b.Tuples))
					}
					hashBatch(h, &b)
					round = append(round, b)
				}
			}
		}
		in.Rounds = append(in.Rounds, round)
		in.roundTuples = append(in.roundTuples, tuples)
		in.roundCount = append(in.roundCount, counts)
	}
	cum := map[[3]int]uint64{}
	for r := range in.Rounds {
		for i := range in.Rounds[r] {
			b := &in.Rounds[r][i]
			key := [3]int{b.Query, int(b.TypeIdx), b.Host}
			cum[key] += uint64(len(b.Tuples))
			b.Cum = cum[key]
		}
	}
	for r := range in.Rounds {
		for i := range in.Rounds[r] {
			b := &in.Rounds[r][i]
			b.PerCycle = cum[[3]int{b.Query, int(b.TypeIdx), b.Host}]
		}
	}
	in.Hash = hexSum(h)
	return in, nil
}

// MatchedTotal is the cumulative matched count b's stream reports when b is
// fed as part of run round round.
func (b *CentralBatch) MatchedTotal(round uint64) uint64 {
	return round/CentralCycleRounds*b.PerCycle + b.Cum
}

// BatchesPerRound is the number of batches in every round.
func (in *CentralInput) BatchesPerRound() int { return len(in.Rounds[0]) }

// Batch returns the g'th batch of the run (rounds cycle) and the pass
// number to stamp it with.
func (in *CentralInput) Batch(g uint64) (b *CentralBatch, round uint64) {
	per := uint64(in.BatchesPerRound())
	round = g / per
	return &in.Rounds[round%CentralCycleRounds][g%per], round
}

// StampInto copies b's tuples into dst rebased for the given run round:
// timestamps move to base plus the round's place on the run's timeline,
// request ordinals stay unique across cycles. dst must have capacity for
// the batch; Values alias the immutable pool.
func (in *CentralInput) StampInto(dst []transport.Tuple, b *CentralBatch, round uint64, base int64) []transport.Tuple {
	pass := round / CentralCycleRounds
	tsOff := base + int64(pass)*CentralCycleRounds*CentralRoundNanos
	idOff := pass * uint64(CentralCycleRounds*CentralHosts*CentralBatchTuples) << UserBits
	dst = dst[:len(b.Tuples)]
	for i := range b.Tuples {
		dst[i] = b.Tuples[i]
		dst[i].TsNanos += tsOff
		dst[i].RequestID += idOff
	}
	return dst
}

// MaxBatchTuples is the largest batch in the cycle (scratch sizing).
func (in *CentralInput) MaxBatchTuples() int {
	m := 0
	for _, round := range in.Rounds {
		for i := range round {
			if n := len(round[i].Tuples); n > m {
				m = n
			}
		}
	}
	return m
}

// TuplesThrough is the number of tuples (all queries) in the first rounds
// rounds of a run.
func (in *CentralInput) TuplesThrough(rounds uint64) uint64 {
	var perCycle, head uint64
	for r, qs := range in.roundTuples {
		for _, n := range qs {
			perCycle += n
			if uint64(r) < rounds%CentralCycleRounds {
				head += n
			}
		}
	}
	return rounds/CentralCycleRounds*perCycle + head
}

// Reference returns, per query, the tuples fed and the count(*) total the
// emitted windows must add up to after the first rounds rounds of a run.
func (in *CentralInput) Reference(rounds uint64) (tuples, counts []uint64) {
	tuples = make([]uint64, len(in.Queries))
	counts = make([]uint64, len(in.Queries))
	for r := uint64(0); r < rounds; r++ {
		for qi := range in.Queries {
			tuples[qi] += in.roundTuples[r%CentralCycleRounds][qi]
			counts[qi] += in.roundCount[r%CentralCycleRounds][qi]
		}
	}
	return tuples, counts
}

func hashBatch(h interface{ Write([]byte) (int, error) }, b *CentralBatch) {
	buf := []byte{byte(b.Query), byte(b.Host), b.TypeIdx}
	for _, t := range b.Tuples {
		buf = binary.LittleEndian.AppendUint64(buf, t.RequestID)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.TsNanos))
		for _, v := range t.Values {
			buf = event.AppendValue(buf, v)
		}
	}
	h.Write(buf)
}
