package server

import (
	"fmt"
	"sync"
	"time"

	"scrub/internal/transport"
)

// Client is a troubleshooter's connection to the query server. It runs
// one query at a time (the common CLI workflow); open several Clients for
// concurrent queries.
type Client struct {
	conn *transport.Conn
	mu   sync.Mutex
	busy bool
}

// DialClient connects to a query server's client address.
func DialClient(addr string) (*Client, error) {
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// QueryStream is a running query's result feed. Consume Windows until it
// closes, then read Final for the end-of-query statistics.
type QueryStream struct {
	Info    transport.QueryAccepted
	Windows <-chan transport.ResultWindow

	client *Client
	mu     sync.Mutex
	stats  transport.QueryStats
	err    error
	done   chan struct{}
}

// Query submits text and streams results until the query's span ends (or
// Cancel). Rejected queries return an error immediately.
func (c *Client) Query(text string) (*QueryStream, error) {
	c.mu.Lock()
	if c.busy {
		c.mu.Unlock()
		return nil, fmt.Errorf("server: client already has a running query")
	}
	c.busy = true
	c.mu.Unlock()

	fail := func(err error) (*QueryStream, error) {
		c.mu.Lock()
		c.busy = false
		c.mu.Unlock()
		return nil, err
	}

	if err := c.conn.Send(transport.SubmitQuery{Text: text}); err != nil {
		return fail(err)
	}
	first, err := c.conn.Recv()
	if err != nil {
		return fail(err)
	}
	switch m := first.(type) {
	case transport.QueryAccepted:
		wins := make(chan transport.ResultWindow, 64)
		qs := &QueryStream{
			Info:    m,
			Windows: wins,
			client:  c,
			done:    make(chan struct{}),
		}
		go qs.readLoop(wins)
		return qs, nil
	case transport.QueryError:
		return fail(fmt.Errorf("server: query rejected: %s", m.Msg))
	default:
		return fail(unexpected(first))
	}
}

func (qs *QueryStream) readLoop(wins chan<- transport.ResultWindow) {
	// The client is free before the stream is seen to end: a request made
	// as soon as Final returns finds it idle.
	defer func() {
		qs.client.mu.Lock()
		qs.client.busy = false
		qs.client.mu.Unlock()
		close(wins)
		close(qs.done)
	}()
	for {
		msg, err := qs.client.conn.Recv()
		if err != nil {
			qs.mu.Lock()
			qs.err = err
			qs.mu.Unlock()
			return
		}
		switch m := msg.(type) {
		case transport.ResultWindow:
			if m.QueryID == qs.Info.QueryID {
				wins <- m
			}
		case transport.QueryDone:
			if m.QueryID == qs.Info.QueryID {
				qs.mu.Lock()
				qs.stats = m.Stats
				qs.mu.Unlock()
				return
			}
		case transport.QueryError:
			qs.mu.Lock()
			qs.err = fmt.Errorf("server: %s", m.Msg)
			qs.mu.Unlock()
			if m.QueryID == qs.Info.QueryID {
				return
			}
		}
	}
}

// Final blocks until the stream ends and returns the query statistics.
func (qs *QueryStream) Final() (transport.QueryStats, error) {
	<-qs.done
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return qs.stats, qs.err
}

// Cancel asks the server to end the query now. Results already in flight
// still drain through Windows.
func (qs *QueryStream) Cancel() error {
	return qs.client.conn.Send(transport.CancelQuery{QueryID: qs.Info.QueryID})
}

// List fetches the server's active-query summaries. Not usable while a
// query stream is open on this client (one conversation at a time).
func (c *Client) List() ([]transport.QuerySummary, error) {
	msg, err := c.request(transport.ListQueries{})
	l, ok := msg.(transport.QueryList)
	if err == nil && !ok {
		err = unexpected(msg)
	}
	return l.Queries, err
}

// ShardStatus fetches the server's shard-fabric view: membership epoch,
// merge counters, and one row per shard process. A single-process
// deployment answers with an empty list (Epoch 0). Not usable while a
// query stream is open on this client.
func (c *Client) ShardStatus() (transport.ShardStatusList, error) {
	msg, err := c.request(transport.ShardStatusReq{})
	sl, ok := msg.(transport.ShardStatusList)
	if err == nil && !ok {
		err = unexpected(msg)
	}
	return sl, err
}

// request sends req and returns the one reply, unless a query stream
// holds the connection.
func (c *Client) request(req transport.Message) (transport.Message, error) {
	c.mu.Lock()
	if c.busy {
		c.mu.Unlock()
		return nil, fmt.Errorf("server: client has a running query")
	}
	c.busy = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.busy = false
		c.mu.Unlock()
	}()
	if err := c.conn.Send(req); err != nil {
		return nil, err
	}
	return c.conn.Recv()
}

func unexpected(msg transport.Message) error {
	return fmt.Errorf("server: unexpected response %s", transport.Name(msg))
}

// Close drops the connection; any running query is torn down server-side.
func (c *Client) Close() error { return c.conn.Close() }
