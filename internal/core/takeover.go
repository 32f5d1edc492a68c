package core

import (
	"fmt"
	"log"
	"time"

	"scrub/internal/central"
	"scrub/internal/coord"
	"scrub/internal/event"
	"scrub/internal/obs"
	"scrub/internal/server"
	"scrub/internal/transport"
)

// Takeover makes the standby sb, whose leader fell silent, the leader on
// the dead leader's addresses. It promotes sb, which fences the shards,
// resumes the replicated queries with their windows going to emit, and
// replicates to the other standbys. It then binds addrs, retrying for up
// to 5 s while a killed leader's listeners are torn down, and adopts every
// resumed query into the new server before the hub serves a connection:
// a host that re-registers keeps running what it ran. The node's series
// go on met (nil: none); it returns the node and the resumed queries.
func Takeover(sb *coord.Standby, cat *event.Catalog, addrs server.Addrs, met *obs.Registry, emit central.EmitFunc) (*server.Node, []transport.ShardStart, error) {
	eng, resumed, err := sb.Promote(emit)
	if err != nil {
		return nil, nil, err
	}
	adopt := func(srv *server.Server) {
		for _, rq := range resumed {
			_, err := srv.Adopt(rq.Text, server.QueryInfo{
				ID:    rq.QueryID,
				Start: time.Unix(0, rq.StartNanos), End: time.Unix(0, rq.EndNanos),
				NumHosts: int(rq.TotalHosts), SampledHosts: int(rq.SampledHosts),
			}, server.Callbacks{Done: func(qd transport.QueryDone) {
				log.Printf("scrub: adopted query %d done: %+v", qd.QueryID, qd.Stats)
			}})
			if err != nil {
				log.Printf("scrub: adopt query %d: %v", rq.QueryID, err)
			}
		}
	}
	for attempt := 0; ; attempt++ {
		node, err := server.Listen(addrs, server.Config{Catalog: cat, Engine: eng}, met, log.Printf, adopt)
		if err == nil {
			return node, resumed, nil
		}
		if attempt >= 20 {
			eng.Close()
			return nil, nil, fmt.Errorf("core: bind the leader's addresses: %w", err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}
