package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/graph"
	qmetrics "repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

// pass is one stream pass seen by a timedSource, from its Reset.
type pass struct {
	start  time.Time
	decode time.Duration // time inside Reset and NextBlock
	edges  int64         // edges NextBlock returned
}

// timedSource wraps a stream.Source and records each pass: when it started,
// how many edges it delivered and how long the source took to deliver them.
// It passes every block through unchanged.
type timedSource struct {
	src    stream.Source
	passes []pass
}

func (t *timedSource) NumVertices() int { return t.src.NumVertices() }
func (t *timedSource) Len() int         { return t.src.Len() }

func (t *timedSource) Reset() error {
	t0 := time.Now()
	err := t.src.Reset()
	t.passes = append(t.passes, pass{start: t0, decode: time.Since(t0)})
	return err
}

func (t *timedSource) NextBlock() ([]graph.Edge, error) {
	if len(t.passes) == 0 {
		t.passes = append(t.passes, pass{start: time.Now()})
	}
	p := &t.passes[len(t.passes)-1]
	t0 := time.Now()
	blk, err := t.src.NextBlock()
	p.decode += time.Since(t0)
	p.edges += int64(len(blk))
	return blk, err
}

// decode sums the source time of every pass.
func (t *timedSource) decode() time.Duration {
	var d time.Duration
	for _, p := range t.passes {
		d += p.decode
	}
	return d
}

// edges sums the edges of every pass.
func (t *timedSource) edges() int64 {
	var n int64
	for _, p := range t.passes {
		n += p.edges
	}
	return n
}

// tracedRun is the partition phase run once under instruments.
type tracedRun struct {
	wall    time.Duration // open to committed .cpr, as partition_s
	src     *timedSource
	open    time.Duration // store.OpenMmap and Close
	observe time.Duration // metrics.Evaluator Begin/Observe/Finish
	emit    time.Duration // serve.Builder.Observe, WriteResult, Commit
	// inPass is the part of observe and emit spent inside the pass callback.
	inPass  time.Duration
	end     time.Time // PartitionStream returned
	quality *qmetrics.Quality
}

// partitionTraced runs p's PartitionStream on a timed source. Its emit
// callback makes the calls the serial path of RunOutOfCoreOpts makes
// (metrics.Evaluator Begin/Observe/Finish), each timed, then the emit path
// of partitionToResult.
func partitionTraced(p partition.Partitioner, in, out string, k int) (*tracedRun, error) {
	sp, ok := p.(partition.StreamingPartitioner)
	if !ok {
		return nil, fmt.Errorf("%s cannot stream", p.Name())
	}
	r := &tracedRun{}
	start := time.Now()
	mm, err := store.OpenMmap(in)
	if err != nil {
		return nil, err
	}
	r.open = time.Since(start)
	r.src = &timedSource{src: mm}
	nv := mm.NumVertices()

	t0 := time.Now()
	var ev qmetrics.Evaluator
	ev.Begin(nv, k)
	r.observe += time.Since(t0)
	t0 = time.Now()
	b, err := serve.NewBuilder(nv, k)
	if err != nil {
		mm.Close()
		return nil, err
	}
	r.emit += time.Since(t0)

	err = sp.PartitionStream(r.src, k, func(edges []graph.Edge, assign []int32) error {
		t0 := time.Now()
		if err := ev.Observe(edges, assign); err != nil {
			return err
		}
		t1 := time.Now()
		err := b.Observe(edges, assign)
		t2 := time.Now()
		r.observe += t1.Sub(t0)
		r.emit += t2.Sub(t1)
		r.inPass += t2.Sub(t0)
		return err
	})
	r.end = time.Now()
	if err != nil {
		mm.Close()
		return nil, err
	}
	t0 = time.Now()
	r.quality = ev.Finish()
	t1 := time.Now()
	werr := writeResult(out, b.Result(p.Name(), stream.Natural.String()))
	t2 := time.Now()
	cerr := mm.Close()
	t3 := time.Now()
	r.wall = t3.Sub(start)
	r.observe += t1.Sub(t0)
	r.emit += t2.Sub(t1)
	r.open += t3.Sub(t2)
	if werr != nil {
		return nil, werr
	}
	return r, cerr
}

// direct holds what the direct calls into CLUGP's pass-1 and pass-2 layers
// produced with the parameters CLUGP derives. Its counts must equal
// CLUGP.LastTrace's, and it supplies cluster.crossing_edges, which the
// trace does not carry.
type direct struct {
	clusters int
	crossing int64
	asg      *game.Assignment
}

// clugpDirect runs cluster.Run, cluster.BuildGraph and game.Solve on the
// corpus as CLUGP does: Vmax = 0.2*|E|/k, batch size 6400, the same seed.
func clugpDirect(in string, k int, seed uint64) (*direct, error) {
	mm, err := store.OpenMmap(in)
	if err != nil {
		return nil, err
	}
	defer mm.Close()
	vmax := max(int64(0.2*float64(mm.Len())/float64(k)), 2)
	cres, err := cluster.Run(mm, cluster.Config{Vmax: vmax})
	if err != nil {
		return nil, err
	}
	cres.Compact()
	cg, err := cluster.BuildGraph(mm, cres)
	if err != nil {
		return nil, err
	}
	asg, err := game.Solve(cg, game.Config{K: k, BatchSize: 6400, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &direct{clusters: cres.NumClusters, crossing: cg.TotalInter, asg: asg}, nil
}

// How far an interval the wrapper measured may differ from the same
// interval as CLUGP timed it: clockSlack, plus clockShare of CLUGP's time.
// The two clocks bracket the same work, except for a few steps between
// CLUGP's timestamps and the wrapper's Resets (pass 1's table set-up, the
// cluster-quality fractions before pass 3), which took up to 14 ms at
// k=256. A layer the trace reports within 5% of the work CLUGP timed is
// what attributing 95% of the wall time to the layers asks for.
const (
	clockSlack = 5 * time.Millisecond
	clockShare = 0.05
)

// checkClocks compares the wrapper's view of a CLUGP run with CLUGP's own
// timings in LastTrace: pass 1 runs from the first Reset to the first
// BuildGraph scan's Reset, build and game from there to pass 3's Reset, and
// pass 3 from its Reset to the end of PartitionStream. It returns the
// largest disagreement, and an error when one exceeds the tolerance, which
// means the layers the trace reports are not the work CLUGP did.
func checkClocks(ps []pass, end time.Time, lt *partition.Trace) (time.Duration, error) {
	layers := []struct {
		name            string
		outside, inside time.Duration
	}{
		{"pass 1", ps[1].start.Sub(ps[0].start), lt.ClusterTime},
		{"build and game", ps[3].start.Sub(ps[1].start), lt.BuildTime + lt.GameTime},
		{"pass 3", end.Sub(ps[3].start), lt.TransformTime},
	}
	var worst time.Duration
	var err error
	for _, l := range layers {
		d := l.outside - l.inside
		if d < 0 {
			d = -d
		}
		worst = max(worst, d)
		logf("%s: %.4fs by the wrapper's clock, %.4fs by CLUGP's", l.name, l.outside.Seconds(), l.inside.Seconds())
		if tol := clockSlack + time.Duration(clockShare*float64(l.inside)); d > tol && err == nil {
			err = fmt.Errorf("%s took %v by the wrapper's clock but %v by CLUGP's own, beyond the tolerance of %v",
				l.name, l.outside, l.inside, tol)
		}
	}
	return worst, err
}

// traced measures the per-layer metrics on the corpus's first graph.
// Untraced partition runs give the median that trace.overhead_s compares
// the traced run with. The traced run
// is split into layers at the pass boundaries the wrapper sees, with
// CLUGP's own GameTime splitting the one interval it cannot see into. The
// layer times inside a pass are remainders (the pass's interval minus
// decode and callback time), so trace.unattributed_s covers only the time
// outside the passes; what checks CLUGP's layers is checkClocks, which
// holds the wrapper's intervals to CLUGP's own timings of the same run. The
// serve layers are called without a socket.
func (b *bench) traced(partBudget, serveBudget time.Duration, m map[string]metric) error {
	in := b.inputs[0]
	walls, err := b.partitionRuns(in, partBudget/3, 1)
	if err != nil {
		return err
	}
	untraced := median(walls)

	w := b.w
	p := newPartitioner(w.algo, in.c.seed)
	runtime.GC()
	tr, err := partitionTraced(p, in.c.path, in.cpr, w.k)
	if err != nil {
		return err
	}
	b.checkQuality(in, tr.quality)

	src := tr.src
	decode := tr.open + src.decode()
	var pass1, build, gameT, transform, score, clockGap time.Duration
	var clusters, crossing, rounds, moves, overflow int64
	if cl, ok := p.(*partition.CLUGP); ok {
		if len(src.passes) != 4 {
			return fmt.Errorf("CLUGP made %d passes, want 4", len(src.passes))
		}
		d, err := clugpDirect(in.c.path, w.k, in.c.seed)
		if err != nil {
			return err
		}
		lt := cl.LastTrace
		var derr error
		if d.clusters != lt.NumClusters || d.asg.Rounds != lt.GameRounds || d.asg.Moves != lt.GameMoves {
			derr = fmt.Errorf("direct calls made %d clusters, %d rounds, %d moves; CLUGP's trace says %d, %d, %d",
				d.clusters, d.asg.Rounds, d.asg.Moves, lt.NumClusters, lt.GameRounds, lt.GameMoves)
		}
		b.add(derr)
		ps := src.passes
		// The wrapper sees no boundary between the build's in-memory
		// aggregation and game.Solve, which both run between the last build
		// scan and pass 3; CLUGP's own GameTime from this run splits them.
		gameT = lt.GameTime
		pass1 = ps[1].start.Sub(ps[0].start) - ps[0].decode
		build = ps[3].start.Sub(ps[1].start) - ps[1].decode - ps[2].decode - gameT
		transform = tr.end.Sub(ps[3].start) - ps[3].decode - tr.inPass
		var cerr error
		clockGap, cerr = checkClocks(ps, tr.end, lt)
		b.add(cerr)
		clusters, crossing = int64(d.clusters), d.crossing
		rounds, moves, overflow = int64(lt.GameRounds), lt.GameMoves, lt.Overflowed
	} else {
		if len(src.passes) != 1 {
			return fmt.Errorf("%s made %d passes, want 1", p.Name(), len(src.passes))
		}
		score = tr.end.Sub(src.passes[0].start) - src.passes[0].decode - tr.inPass
	}
	attributed := decode + pass1 + build + gameT + transform + score + tr.observe + tr.emit
	fi, err := os.Stat(in.cpr)
	if err != nil {
		return err
	}
	logf("traced %s: %.3fs (untraced median %.3fs), decode %.3f pass1 %.3f build %.3f game %.3f transform %.3f score %.3f observe %.3f emit %.3f",
		p.Name(), tr.wall.Seconds(), untraced, decode.Seconds(), pass1.Seconds(), build.Seconds(), gameT.Seconds(),
		transform.Seconds(), score.Seconds(), tr.observe.Seconds(), tr.emit.Seconds())

	m["stream.passes"] = metric{float64(len(src.passes)), "count"}
	m["store.decode_edges"] = metric{float64(src.edges()), "count"}
	m["store.decode_s"] = metric{decode.Seconds(), "s"}
	m["cluster.pass1_s"] = metric{pass1.Seconds(), "s"}
	m["cluster.clusters"] = metric{float64(clusters), "count"}
	m["cluster.build_s"] = metric{build.Seconds(), "s"}
	m["cluster.crossing_edges"] = metric{float64(crossing), "count"}
	m["game.solve_s"] = metric{gameT.Seconds(), "s"}
	m["game.rounds"] = metric{float64(rounds), "count"}
	m["game.moves"] = metric{float64(moves), "count"}
	m["partition.transform_s"] = metric{transform.Seconds(), "s"}
	m["partition.overflow_edges"] = metric{float64(overflow), "count"}
	m["partition.score_s"] = metric{score.Seconds(), "s"}
	m["metrics.observe_s"] = metric{tr.observe.Seconds(), "s"}
	m["store.emit_s"] = metric{tr.emit.Seconds(), "s"}
	m["store.result_bytes"] = metric{float64(fi.Size()), "bytes"}
	m["trace.unattributed_s"] = metric{(tr.wall - attributed).Seconds(), "s"}
	m["trace.overhead_s"] = metric{tr.wall.Seconds() - untraced, "s"}
	m["trace.clock_gap_s"] = metric{clockGap.Seconds(), "s"}
	return b.serveLayers(serveBudget, m)
}

// memWriter is an in-memory http.ResponseWriter that keeps only the status
// and the body of the last reply.
type memWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(b []byte) (int, error) { w.body = append(w.body, b...); return len(b), nil }

func (w *memWriter) reset() {
	clear(w.h)
	w.status = http.StatusOK
	w.body = w.body[:0]
}

// serveLayers times the serve layers one at a time, without a socket: the
// handler on the query mix with an in-memory ResponseWriter, the Snapshot
// lookups behind it, and the reload loader. Each gets a third of budget.
func (b *bench) serveLayers(budget time.Duration, m map[string]metric) error {
	c, seed, t := b.inputs[0].c, b.seed, &b.tally
	load := loader(b.inputs[0].cpr)
	first, err := load()
	if err != nil {
		return err
	}
	srv := serve.NewServer(first)
	snap := srv.Current()
	h := srv.Handler()
	qs := queryMix(c, seed, 1<<12)
	reqs := make([]*http.Request, len(qs))
	for i, q := range qs {
		reqs[i] = httptest.NewRequest(http.MethodGet, q.path(), nil)
	}
	slot := budget / 3

	// Handler: one timing per call; the check compares a sample of replies
	// with the snapshot, as the serve phase does.
	epochs := map[uint64]*serve.Snapshot{snap.Epoch(): snap}
	mw := &memWriter{h: http.Header{}}
	var handler []float64
	for i, end := 0, time.Now().Add(slot); time.Now().Before(end); i++ {
		mw.reset()
		j := i % len(reqs)
		t0 := time.Now()
		h.ServeHTTP(mw, reqs[j])
		handler = append(handler, float64(time.Since(t0))/float64(time.Microsecond))
		if i%checkEvery == 0 {
			var err error
			if mw.status != http.StatusOK {
				err = fmt.Errorf("%s: status %d", qs[j].path(), mw.status)
			} else {
				err = checkAnswer(qs[j], mw.body, epochs)
			}
			t.add(err)
		}
	}

	// Lookups: batches of lookupBatch calls, timed per batch.
	const lookupBatch = 256
	var lookups []float64
	scratch := make([]int32, 0, snap.K())
	for i, end := 0, time.Now().Add(slot); time.Now().Before(end); {
		t0 := time.Now()
		for n := 0; n < lookupBatch; n, i = n+1, i+1 {
			q := qs[i%len(qs)]
			var err error
			switch q.kind {
			case 'v':
				_, err = snap.Primary(q.src)
			case 'e':
				_, err = snap.RouteEdge(q.src, q.dst)
			default:
				scratch, err = snap.Replicas(q.src, scratch[:0])
			}
			if err != nil {
				return fmt.Errorf("lookup %s: %w", q.path(), err)
			}
		}
		lookups = append(lookups, float64(time.Since(t0))/lookupBatch)
	}

	// Reload loader: read the .cpr and build the snapshot.
	var loads []float64
	for end := time.Now().Add(slot); len(loads) < 3 || time.Now().Before(end); {
		t0 := time.Now()
		_, err := load()
		loads = append(loads, float64(time.Since(t0))/float64(time.Millisecond))
		t.add(err)
	}
	m["serve.handler_us"] = metric{median(handler), "us"}
	m["serve.lookup_ns"] = metric{median(lookups), "ns"}
	m["serve.reload_load_ms"] = metric{median(loads), "ms"}
	logf("serve layers: handler %.2fus (%d calls), lookup %.1fns, load %.2fms (%d loads)",
		m["serve.handler_us"].Value, len(handler), m["serve.lookup_ns"].Value, m["serve.reload_load_ms"].Value, len(loads))
	return nil
}
