package host

import (
	"fmt"
	"math"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/transport"
)

// BenchmarkLogQueriedTypes times Log's lookup of an event's type in the
// dispatch snapshot with k event types queried at once — what scrubbench's
// host workloads (one queried type) do not vary. Every query's span opens
// in the far future, so a hit costs the lookup and one comparison and an
// event of an unqueried type costs the lookup alone. The type names are of
// equal length, the worst case for comparing them.
//
//	hit:       events cycle through the k queried types
//	unqueried: events of a catalog type nothing queries
//	foreign:   events of a queried name on a *Schema the catalog does not hold
func BenchmarkLogQueriedTypes(b *testing.B) {
	const maxTypes = 64
	cat := event.NewCatalog()
	field := event.FieldDef{Name: "n", Kind: event.KindInt}
	schemas := make([]*event.Schema, maxTypes+1)
	for i := range schemas {
		schemas[i] = event.MustSchema(fmt.Sprintf("type%02d", i), field)
		cat.MustRegister(schemas[i])
	}
	now := time.Now().UnixNano()
	mk := func(s *event.Schema) *event.Event {
		return event.NewBuilder(s).SetRequestID(1).SetTimeNanos(now).Int("n", 1).MustBuild()
	}
	for _, k := range []int{1, 2, 4, 8, 16, 64} {
		a, err := New(Config{HostID: "h", Service: "s", Catalog: cat,
			Sink: SinkFunc(func(transport.TupleBatch) error { return nil })})
		if err != nil {
			b.Fatal(err)
		}
		hits := make([]*event.Event, k)
		for i := 0; i < k; i++ {
			if err := a.Start(transport.HostQuery{QueryID: uint64(i + 1),
				EventType: schemas[i].Name(), StartNanos: math.MaxInt64}); err != nil {
				b.Fatal(err)
			}
			hits[i] = mk(schemas[i])
		}
		run := func(name string, evs []*event.Event) {
			b.Run(fmt.Sprintf("types=%d/%s", k, name), func(b *testing.B) {
				mask := len(evs) - 1 // k is a power of two
				for i := 0; i < b.N; i++ {
					a.Log(evs[i&mask])
				}
			})
		}
		run("hit", hits)
		run("unqueried", []*event.Event{mk(schemas[maxTypes])})
		run("foreign", []*event.Event{mk(event.MustSchema(schemas[k-1].Name(), field))})
		a.Close()
		if st := a.Stats(); st.Matched != 0 {
			b.Fatalf("%d events matched a query whose span has not opened", st.Matched)
		}
	}
}
