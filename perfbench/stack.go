package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bips/internal/analytics"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/server"
	"bips/internal/storage"
	"bips/internal/wire"
)

// eventBuffer is the server's per-connection push buffer
// (-event-buffer). The subscriber connection multiplexes about 300
// subscriptions at tens of thousands of events a second; with the
// default 256, a few milliseconds of writer delay on a busy 2-CPU host
// overflow it and the slow-consumer policy drops and kills.
const eventBuffer = 16384

// stack is one running BIPS server built the way cmd/bips-server builds
// it with -data-dir: a durable store, a durable analytics engine beside
// it, the server over both, serving loopback TCP. ingest carries the
// station sessions and query the logins, queries and subscriptions.
type stack struct {
	dir    string
	store  *storage.Durable
	eng    *analytics.Engine
	srv    *server.Server
	served chan error
	ingest *wire.Client
	query  *wire.Client

	setup        time.Duration
	storageOpen  time.Duration
	analyticOpen time.Duration
	serverNew    time.Duration
}

// subscription is one push subscription the stack holds.
type subscription struct {
	id     string
	filter wire.SubFilter
}

// stackConfig is everything set-up needs; tr is nil for untraced runs.
type stackConfig struct {
	dir     string
	fl      *floor
	pop     *population
	subs    []subscription
	querier string
	tr      *tracer
	onEvent func(wire.Envelope)
}

// setupCalls is how many set-up calls (logins, hellos, subscriptions)
// are in flight at once on a connection.
const setupCalls = 32

// openStack builds and starts the stack. Its set-up time runs from the
// first constructor to the last subscription: store recovery, analytics
// open, server.New, listen, dial, logins, session hellos and
// subscriptions.
func openStack(c stackConfig) (st *stack, err error) {
	t0 := time.Now()
	st = &stack{dir: c.dir}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	reg := registry.New()
	for _, u := range c.pop.users {
		if err := reg.Register(registry.UserID(u), u, userPassword, registry.RightLocate, registry.RightTrackable); err != nil {
			return st, fmt.Errorf("register %s: %w", u, err)
		}
	}
	t := time.Now()
	st.store, err = storage.Open(storage.Options{Dir: c.dir})
	if err != nil {
		return st, fmt.Errorf("open store: %w", err)
	}
	st.storageOpen = time.Since(t)
	t = time.Now()
	st.eng, err = analytics.Open(analytics.Options{Dir: filepath.Join(c.dir, "analytics"), HistoryLimit: st.store.HistoryLimit()})
	if err != nil {
		return st, fmt.Errorf("open analytics: %w", err)
	}
	st.analyticOpen = time.Since(t)
	var db locdb.Store = st.store
	if c.tr != nil {
		db = c.tr.wrapStore(st.store)
	}
	t = time.Now()
	st.srv = server.New(reg, db, c.fl.bld, server.WithAnalytics(st.eng), server.WithEventBuffer(eventBuffer))
	st.serverNew = time.Since(t)
	st.srv.Logf = func(string, ...any) {}
	var ln net.Listener
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, fmt.Errorf("listen: %w", err)
	}
	if c.tr != nil {
		ln = c.tr.wrapListener(ln)
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	if st.ingest, err = dial(ln.Addr().String()); err != nil {
		return st, err
	}
	if st.query, err = dial(ln.Addr().String()); err != nil {
		return st, err
	}
	if c.onEvent != nil {
		st.query.SetPushHandler(c.onEvent)
	}
	err = parallel(len(c.pop.users), setupCalls, func(i int) error {
		return st.query.Call(wire.MsgLogin, wire.Login{User: c.pop.users[i], Password: userPassword, Device: c.pop.addrs[i]}, nil)
	})
	if err != nil {
		return st, fmt.Errorf("login: %w", err)
	}
	err = parallel(len(c.pop.stations), setupCalls, func(i int) error {
		s := c.pop.stations[i]
		var ack wire.IngestAck
		return st.ingest.Call(wire.MsgIngestHello, &wire.IngestHello{Session: s.session, Station: s.session, Room: c.fl.rooms[0]}, &ack)
	})
	if err != nil {
		return st, fmt.Errorf("ingest hello: %w", err)
	}
	err = parallel(len(c.subs), setupCalls, func(i int) error {
		return st.query.Call(wire.MsgSubscribe, wire.Subscribe{ID: c.subs[i].id, Querier: c.querier, Filter: c.subs[i].filter}, nil)
	})
	if err != nil {
		return st, fmt.Errorf("subscribe: %w", err)
	}
	st.setup = time.Since(t0)
	return st, nil
}

func dial(addr string) (*wire.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return wire.NewClient(wire.NewFrameCodec(conn)), nil
}

// close tears the stack down in cmd/bips-server's order: connections,
// server, then the store's final checkpoint and the engine's final seal.
func (st *stack) close() error {
	var errs []error
	for _, c := range []*wire.Client{st.ingest, st.query} {
		if c != nil {
			if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
				errs = append(errs, err)
			}
		}
	}
	if st.srv != nil {
		errs = append(errs, st.srv.Close())
		if st.served != nil {
			errs = append(errs, <-st.served)
		}
	}
	if st.store != nil {
		errs = append(errs, st.store.Close())
	}
	if st.eng != nil {
		errs = append(errs, st.eng.Close())
	}
	return errors.Join(errs...)
}

// parallel runs fn(0..n-1) on up to width goroutines and returns the
// first error.
func parallel(n, width int, fn func(i int) error) error {
	if width < 1 {
		width = 1
	}
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil || i >= n
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// copyDir copies a prepared data directory (regular files, one level of
// subdirectories deep or more) to dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
