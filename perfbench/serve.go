package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// The serve phase: partsrv's handler on a loopback listener in this
// process, queried in a closed loop by one keep-alive client - it sends its
// next request only when the previous reply has arrived - while a second
// connection posts reloads. The phase runs in windows of reloadEvery, each
// with one reload posted at its middle, so every window holds the same
// work; the windows are spread over the whole run, between partition runs.
// No recorded partsrv traffic exists to copy, so the client count, the
// query mix and the reload cadence are assumptions, not measured load. The
// reload cadence is far above a real deployment's (partsrv reloads only on
// SIGHUP or POST), so reloads weigh heavily in the query tail and in
// reload_ms.
const (
	reloadEvery = 500 * time.Millisecond
	// checkEvery: one reply in checkEvery is kept and compared, after its
	// window, with direct Snapshot calls on the epoch it was answered under.
	checkEvery = 16
)

// query is one request of the assumed mix: 60% vertex, 30% edge, 10%
// replicas.
type query struct {
	kind     byte // 'v', 'e' or 'r'
	src, dst graph.VertexID
}

func (q query) path() string {
	switch q.kind {
	case 'v':
		return "/v1/vertex/" + strconv.FormatUint(uint64(q.src), 10)
	case 'r':
		return "/v1/replicas/" + strconv.FormatUint(uint64(q.src), 10)
	}
	return "/v1/edge?src=" + strconv.FormatUint(uint64(q.src), 10) + "&dst=" + strconv.FormatUint(uint64(q.dst), 10)
}

// queryMix returns n seeded queries over the corpus: vertex ids uniform over
// the id space, edges drawn from the graph.
func queryMix(c *corpus, seed uint64, n int) []query {
	rng := xrand.New(seed)
	qs := make([]query, n)
	for i := range qs {
		switch r := rng.Intn(10); {
		case r < 6:
			qs[i] = query{kind: 'v', src: graph.VertexID(rng.Intn(c.numVertices))}
		case r < 9:
			e := c.edges[rng.Intn(len(c.edges))]
			qs[i] = query{kind: 'e', src: e.Src, dst: e.Dst}
		default:
			qs[i] = query{kind: 'r', src: graph.VertexID(rng.Intn(c.numVertices))}
		}
	}
	return qs
}

// loader is the registered reload function: read the .cpr from disk and
// build the next snapshot in partsrv's default flat layout.
func loader(cpr string) func() (*serve.Snapshot, error) {
	return func() (*serve.Snapshot, error) {
		r, err := readResult(cpr)
		if err != nil {
			return nil, err
		}
		return serve.NewSnapshot(r, serve.Options{})
	}
}

// answer is the union of the three query replies.
type answer struct {
	Epoch      uint64  `json:"epoch"`
	Vertex     *uint64 `json:"vertex"`
	Src        *uint64 `json:"src"`
	Dst        *uint64 `json:"dst"`
	Partition  *int32  `json:"partition"`
	Replicas   *int    `json:"replicas"`
	Partitions []int32 `json:"partitions"`
}

// checkAnswer compares one HTTP reply with the direct Snapshot call on the
// epoch the reply names.
func checkAnswer(q query, body []byte, epochs map[uint64]*serve.Snapshot) error {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("%s: bad reply %q: %w", q.path(), body, err)
	}
	snap := epochs[a.Epoch]
	if snap == nil {
		return fmt.Errorf("%s: reply names unknown epoch %d", q.path(), a.Epoch)
	}
	var ok bool
	switch q.kind {
	case 'v':
		p, err1 := snap.Primary(q.src)
		n, err2 := snap.Count(q.src)
		ok = err1 == nil && err2 == nil && a.Vertex != nil && *a.Vertex == uint64(q.src) &&
			a.Partition != nil && *a.Partition == p && a.Replicas != nil && *a.Replicas == n
	case 'r':
		reps, err := snap.Replicas(q.src, nil)
		ok = err == nil && a.Vertex != nil && *a.Vertex == uint64(q.src) &&
			a.Partitions != nil && slices.Equal(a.Partitions, reps)
	case 'e':
		p, err := snap.RouteEdge(q.src, q.dst)
		ok = err == nil && a.Src != nil && *a.Src == uint64(q.src) && a.Dst != nil && *a.Dst == uint64(q.dst) &&
			a.Partition != nil && *a.Partition == p
	}
	if !ok {
		return fmt.Errorf("%s: reply %q disagrees with the snapshot of epoch %d", q.path(), body, a.Epoch)
	}
	return nil
}

// serveResult is what the serve phase measured.
type serveResult struct {
	queryPerS, p50us, reloadMs float64
}

// kept is one sampled reply awaiting its check.
type kept struct {
	q    query
	body []byte
}

// server is the serve phase in progress: the handler on its listener, the
// query client, the reload client, and what the windows so far measured.
type server struct {
	b        *bench
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	base     string
	client   *http.Client
	reloader *http.Client
	qs       []query
	next     int
	buf      bytes.Buffer
	epochs   map[uint64]*serve.Snapshot // the snapshots kept replies may name
	nepochs  int                        // epochs installed by reloads
	keep     []kept                     // this window's sampled replies
	// One entry per window: query rate, p50 and p99, and the reload's round
	// trip. The p99s are only logged: on a shared machine their medians
	// spread too widely over runs of the same code to hold a bound.
	rates, p50s, p99s, reloads []float64
}

// startServer loads the .cpr of in and serves it on a loopback listener.
func (b *bench) startServer(in *input) (*server, error) {
	load := loader(in.cpr)
	first, err := load()
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(first)
	srv.SetLoader(load)
	cur := srv.Current()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		b: b, srv: srv, served: make(chan error, 1), base: "http://" + ln.Addr().String(),
		hs:       &http.Server{Handler: srv.Handler()},
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		reloader: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		qs:       queryMix(in.c, b.seed*31+1, 1<<16),
		epochs:   map[uint64]*serve.Snapshot{cur.Epoch(): cur},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// window queries the server for reloadEvery and posts one reload at the
// middle of that time. Each query counts in its window. Non-200 replies,
// failed reloads and sampled replies that disagree with the snapshot count
// as failed operations.
func (s *server) window() {
	t := &s.b.tally
	// Start from a collected heap, not the partition phase's garbage.
	runtime.GC()
	start := time.Now()
	end := start.Add(reloadEvery)
	var reloadMs float64
	var reloadErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(reloadEvery / 2)
		t0 := time.Now()
		reloadErr = s.reload()
		reloadMs = float64(time.Since(t0)) / float64(time.Millisecond)
	}()
	var lat []int64
	for time.Now().Before(end) {
		q := s.qs[s.next%len(s.qs)]
		s.next++
		t0 := time.Now()
		status, err := get(s.client, s.base+q.path(), &s.buf)
		lat = append(lat, int64(time.Since(t0)))
		t.attempted++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", q.path(), status, s.buf.Bytes())
		}
		if err != nil {
			t.fail(err)
			continue
		}
		if s.next%checkEvery == 0 {
			s.keep = append(s.keep, kept{q: q, body: bytes.Clone(s.buf.Bytes())})
		}
	}
	elapsed := time.Since(start)
	<-done
	t.add(reloadErr)
	cur := s.srv.Current()
	if reloadErr == nil {
		// Only this phase reloads, so the current snapshot is the one the
		// POST installed.
		s.epochs[cur.Epoch()] = cur
		s.nepochs++
	}
	// Every kept reply was answered under the window's first epoch or the
	// one its reload installed; check them now and keep only the current
	// snapshot, so the phase holds at most two.
	for _, k := range s.keep {
		t.fail(checkAnswer(k.q, k.body, s.epochs))
	}
	s.keep = s.keep[:0]
	s.epochs = map[uint64]*serve.Snapshot{cur.Epoch(): cur}
	slices.Sort(lat)
	s.rates = append(s.rates, float64(len(lat))/elapsed.Seconds())
	s.p50s = append(s.p50s, float64(percentile(lat, 50))/1e3)
	s.p99s = append(s.p99s, float64(percentile(lat, 99))/1e3)
	s.reloads = append(s.reloads, reloadMs)
}

// reload posts /v1/reload and requires a 200.
func (s *server) reload() error {
	resp, err := s.reloader.Post(s.base+"/v1/reload", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload: status %d: %s", resp.StatusCode, body.Bytes())
	}
	return nil
}

// stop shuts the server down and returns the medians over the windows, so
// that a stall of the machine moves the windows it falls in, not the
// result.
func (s *server) stop() (*serveResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	s.reloader.CloseIdleConnections()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
		<-s.served
		return nil, err
	}
	if err := <-s.served; err != http.ErrServerClosed {
		return nil, err
	}
	if len(s.rates) == 0 || slices.Min(s.rates) == 0 {
		return nil, fmt.Errorf("serve phase of %d windows made %d queries, some window none", len(s.rates), s.next)
	}
	logf("serve windows: rate %.0f, p50 %.1f, p99 %.1f, reload %.2f", s.rates, s.p50s, s.p99s, s.reloads)
	res := &serveResult{
		queryPerS: median(s.rates),
		p50us:     median(s.p50s),
		reloadMs:  median(s.reloads),
	}
	logf("serve: %d queries in %d windows, median %.0f/s, p50 %.1fus, reload %.2fms, %d reloaded epochs",
		s.next, len(s.rates), res.queryPerS, res.p50us, res.reloadMs, s.nepochs)
	return res, nil
}

// get fetches url into buf and returns the status.
func get(client *http.Client, url string, buf *bytes.Buffer) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}
