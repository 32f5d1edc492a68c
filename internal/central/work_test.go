package central

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/slab"
	"scrub/internal/transport"
)

// TestApplyWorkCounts records what central's apply does and keeps, as
// counts that repeat to the digit once the hash seed is pinned, in
// testdata/work.golden (-update-golden rewrites it; a moved line needs a
// stated reason, like any golden). Two feeds: BenchmarkJoinApply's one
// window (joinApplyFeed, kept open) and a group-by over zipfian users with
// thousands of groups, many chunks of heads of them. Per feed it walks the
// window's runs and reports how many there are, how many hold a link and
// (join) a partner ref, how many buckets they occupy, and the window's
// arena and head bytes per request or group; for the join also the chain
// runs its probes visited per request (queryState.chainSteps).
func TestApplyWorkCounts(t *testing.T) {
	defer func(seed uint64) { hashSeed = seed }(hashSeed)
	hashSeed = 0x5c7b_0001
	var out strings.Builder

	e := startJoinApply(t, time.Hour)
	f := newJoinApplyFeed()
	for n := 0; n < joinApplyWindow; n++ {
		bids, excl := f.pair(n)
		e.HandleBatch(bids)
		e.HandleBatch(excl)
	}
	e.mu.Lock()
	qs := e.queries[1]
	ws := qs.win.GetAll(0)[0]
	requests := float64(joinApplyWindow * joinApplyBatch)
	var runs, linked, refs, written int
	buckets := map[uint64]bool{}
	for _, chunk := range ws.arena.Chunks() {
		written += len(chunk)
		for off := 0; off < len(chunk); {
			b := chunk[off:]
			h := parseJoin(b)
			runs++
			if h.Linked {
				linked++
			}
			if h.Bits&runRef != 0 {
				refs++
			}
			buckets[ws.join.Bucket(hashID(ws.requestID(b, h.Header))<<1|uint64(h.Bits&runSide))] = true
			w := len(qs.plan.Columns[h.Bits&runSide])
			off += h.cols + ws.unpackJoin(make([]event.Value, w), b[h.cols:], w)
		}
	}
	fmt.Fprintf(&out, "join: %d pairs of %d-tuple batches, %.0f requests\n", joinApplyWindow, joinApplyBatch, requests)
	fmt.Fprintf(&out, "join runs %d\n", runs)
	fmt.Fprintf(&out, "join linked-runs %d\n", linked)
	fmt.Fprintf(&out, "join ref-runs %d\n", refs)
	fmt.Fprintf(&out, "join occupied-buckets %d\n", len(buckets))
	fmt.Fprintf(&out, "join arena-bytes/request %.4f\n", float64(written)/requests)
	fmt.Fprintf(&out, "join head-bytes/request %.4f\n", float64(ws.join.Bytes())/requests)
	fmt.Fprintf(&out, "join chain-steps/request %.4f\n", float64(qs.chainSteps)/requests)
	e.mu.Unlock()

	e = NewEngine()
	p := buildPlan(t, `select bid.user_id, count(*), avg(bid.bid_price) from bid group by bid.user_id window 10s`, 1, 1, 1)
	p.Lateness = time.Hour
	if err := e.StartQuery(p, func(transport.ResultWindow) {}); err != nil {
		t.Fatal(err)
	}
	const tuples = 20480
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 100000)
	for i := 0; i < tuples; i += 512 {
		batch := bidBatch(1, "h")
		for j := 0; j < 512; j++ {
			batch.Tuples = append(batch.Tuples, tup(uint64(i+j), sec(1), event.Int(int64(zipf.Uint64())), event.Float(rng.Float64()*10)))
		}
		e.HandleBatch(batch)
	}
	e.mu.Lock()
	ws = e.queries[1].win.GetAll(sec(1))[0]
	groups := float64(ws.groups.Len())
	runs, linked, written = 0, 0, 0
	clear(buckets)
	for _, chunk := range ws.groupRuns.Chunks() {
		written += len(chunk)
	}
	for rows := ws.groupsInOrder(); ; {
		run := rows.next()
		if run == nil {
			break
		}
		runs++
		if slab.ParseHeader(run).Linked {
			linked++
		}
		buckets[ws.groups.Bucket(hashKey(groupOf(run).key))] = true
	}
	fmt.Fprintf(&out, "groups: %d tuples of zipfian users, %.0f groups\n", tuples, groups)
	fmt.Fprintf(&out, "group runs %d\n", runs)
	fmt.Fprintf(&out, "group linked-runs %d\n", linked)
	fmt.Fprintf(&out, "group occupied-buckets %d\n", len(buckets))
	fmt.Fprintf(&out, "group arena-bytes/group %.4f\n", float64(written)/groups)
	fmt.Fprintf(&out, "group head-bytes/group %.4f\n", float64(ws.groups.Bytes())/groups)
	e.mu.Unlock()

	path := filepath.Join("testdata", "work.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(out.String()), want) {
		t.Errorf("work counts differ from %s:\n got:\n%s\nwant:\n%s", path, out.String(), want)
	}
}
