package server

import (
	"os"
	"sync"
	"time"

	"scrub/internal/transport"
)

// clientLag is how long a result may wait for its reader (DESIGN §4): a
// time, not a count, because one flush can emit 86 400 windows at once
// and a reading client takes them in under 0.5 s (EXPERIMENTS.md M41).
const clientLag = 2 * time.Second

// Egress is the one way results leave Scrub. Queue appends to a FIFO
// without blocking (the merger emits under its lock), and one writer
// hands the messages in order to the sink — a client connection, stdout
// or a reader's channel — each by clientLag after it was queued, which
// the sink bounds its write by if it can. A miss or a failed write cuts
// the egress: what is and will be queued is dropped. end is called once,
// when the writer stops: with nil once Close has drained the FIFO, and
// with the error on a cut, so the owner counts it and cancels its queries.
type Egress struct {
	sink    func(m transport.Message, deadline time.Time) error
	end     func(error)
	mu      sync.Mutex
	q       []queued
	closing bool // closed or cut: Queue drops
	wake    chan struct{}
	done    chan struct{}
}

type queued struct {
	msg transport.Message
	at  time.Time
}

// NewEgress starts an egress's writer.
func NewEgress(sink func(m transport.Message, deadline time.Time) error, end func(error)) *Egress {
	e := &Egress{sink: sink, end: end, wake: make(chan struct{}, 1), done: make(chan struct{})}
	go e.write()
	return e
}

// Queue queues m; a closed or cut egress drops it.
func (e *Egress) Queue(m transport.Message) {
	e.mu.Lock()
	if !e.closing {
		e.q = append(e.q, queued{m, time.Now()})
	}
	e.mu.Unlock()
	e.poke()
}

// Close drops what is queued later; the writer delivers what is queued
// now, each message by its deadline, then stops.
func (e *Egress) Close() {
	e.mu.Lock()
	e.closing = true
	e.mu.Unlock()
	e.poke()
}

// Done is closed once the writer has stopped and end has returned.
func (e *Egress) Done() <-chan struct{} { return e.done }

func (e *Egress) poke() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

func (e *Egress) write() {
	defer close(e.done)
	var batch []queued
	for {
		e.mu.Lock()
		batch, e.q = e.q, batch[:0]
		closing := e.closing
		e.mu.Unlock()
		if len(batch) == 0 {
			if closing {
				e.end(nil)
				return
			}
			<-e.wake
		}
		for i, m := range batch {
			batch[i] = queued{}
			err := error(os.ErrDeadlineExceeded)
			if deadline := m.at.Add(clientLag); time.Now().Before(deadline) {
				err = e.sink(m.msg, deadline)
			}
			if err != nil {
				e.mu.Lock()
				e.closing, e.q = true, nil
				e.mu.Unlock()
				e.end(err)
				return
			}
		}
	}
}
