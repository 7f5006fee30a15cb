package main

import (
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

// smallCorpus writes a small graph of the benchmark's shape and returns it
// with the generated edges, in the order the file streams them.
func smallCorpus(t *testing.T) (*corpus, []graph.Edge) {
	t.Helper()
	cfg := corpusConfig(7)
	cfg.N = 3000
	c, err := writeCorpus(filepath.Join(t.TempDir(), "g.cgr"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, gen.Web(cfg).Edges
}

// streamed collects one partitioner's emitted edges and assignments.
func streamed(t *testing.T, p partition.Partitioner, src stream.Source, k int) ([]graph.Edge, []int32) {
	t.Helper()
	var edges []graph.Edge
	var assign []int32
	err := p.(partition.StreamingPartitioner).PartitionStream(src, k, func(e []graph.Edge, a []int32) error {
		edges = append(edges, e...)
		assign = append(assign, a...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return edges, assign
}

func TestTimedSourcePassesEdgesThrough(t *testing.T) {
	c, want := smallCorpus(t)
	mm, err := store.OpenMmap(c.path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	src := &timedSource{src: mm}
	for pass := 0; pass < 2; pass++ {
		var got []graph.Edge
		err := stream.ForEach(src, func(_ int, blk []graph.Edge) error {
			got = append(got, blk...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pass %d: the wrapper delivered %d edges that differ from the file's %d", pass, len(got), len(want))
		}
	}
	if len(src.passes) != 2 || src.edges() != 2*int64(len(want)) {
		t.Fatalf("counted %d passes and %d edges, want 2 and %d", len(src.passes), src.edges(), 2*len(want))
	}
}

func TestTimedSourceCountsPartitionerPasses(t *testing.T) {
	c, want := smallCorpus(t)
	for _, tc := range []struct {
		algo   string
		passes int
	}{{"CLUGP", 4}, {"HDRF", 1}} {
		t.Run(tc.algo, func(t *testing.T) {
			plain, err := store.OpenMmap(c.path)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			mm, err := store.OpenMmap(c.path)
			if err != nil {
				t.Fatal(err)
			}
			defer mm.Close()
			src := &timedSource{src: mm}
			wantEdges, wantAssign := streamed(t, newPartitioner(tc.algo, 3), plain, 8)
			gotEdges, gotAssign := streamed(t, newPartitioner(tc.algo, 3), src, 8)
			if !slices.Equal(gotEdges, want) || !slices.Equal(wantEdges, want) {
				t.Fatal("emitted edges differ from the file's")
			}
			if !slices.Equal(gotAssign, wantAssign) {
				t.Fatal("the wrapper changed the assignment")
			}
			if len(src.passes) != tc.passes {
				t.Fatalf("counted %d passes, want %d", len(src.passes), tc.passes)
			}
			for i, p := range src.passes {
				if p.edges != int64(len(want)) {
					t.Fatalf("pass %d delivered %d edges, want %d", i, p.edges, len(want))
				}
			}
			if src.edges() != int64(tc.passes*len(want)) {
				t.Fatalf("counted %d edges, want %d", src.edges(), tc.passes*len(want))
			}
		})
	}
}

func TestCheckResultRejectsForgery(t *testing.T) {
	c, _ := smallCorpus(t)
	w := workload{name: "test", algo: "CLUGP", k: 8}
	cpr := filepath.Join(t.TempDir(), "r.cpr")
	res, err := partitionToResult(newPartitioner(w.algo, 1), c.path, cpr, w.k)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(cpr, w, c, res.Quality); err != nil {
		t.Fatalf("genuine result rejected: %v", err)
	}
	forge := func(name, wantErr string, edit func(r *store.Result)) {
		t.Run(name, func(t *testing.T) {
			r, err := readResult(cpr)
			if err != nil {
				t.Fatal(err)
			}
			edit(r)
			forged := filepath.Join(t.TempDir(), "forged.cpr")
			if err := writeResult(forged, r); err != nil {
				t.Fatal(err)
			}
			err = checkResult(forged, w, c, res.Quality)
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("forged result: got error %v, want one containing %q", err, wantErr)
			}
		})
	}
	forge("altered size", "sum to", func(r *store.Result) {
		r.Sizes[0]++
		r.NumEdges++
	})
	forge("edge moved between partitions", "sizes differ", func(r *store.Result) {
		r.Sizes[0]--
		r.Sizes[1]++
	})
	forge("extra replica bit", "replication factor", func(r *store.Result) {
		for v := 0; v < r.NumVertices; v++ {
			for p := 0; p < r.K; p++ {
				if !r.Replicas.Has(graph.VertexID(v), p) && r.Replicas.Count(graph.VertexID(v)) > 0 {
					r.Replicas.Add(graph.VertexID(v), p)
					return
				}
			}
		}
		t.Fatal("every vertex is replicated everywhere")
	})
}

func TestCheckAnswerRejectsWrongReply(t *testing.T) {
	c, _ := smallCorpus(t)
	cpr := filepath.Join(t.TempDir(), "r.cpr")
	if _, err := partitionToResult(newPartitioner("HDRF", 1), c.path, cpr, 8); err != nil {
		t.Fatal(err)
	}
	snap, err := loader(cpr)()
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(snap)
	cur := srv.Current()
	epochs := map[uint64]*serve.Snapshot{cur.Epoch(): cur}
	e := c.edges[0]
	p, err := cur.RouteEdge(e.Src, e.Dst)
	if err != nil {
		t.Fatal(err)
	}
	q := query{kind: 'e', src: e.Src, dst: e.Dst}
	reply := func(part int32, epoch uint64) []byte {
		return []byte(`{"epoch":` + itoa(int64(epoch)) + `,"src":` + itoa(int64(e.Src)) + `,"dst":` + itoa(int64(e.Dst)) + `,"partition":` + itoa(int64(part)) + "}\n")
	}
	if err := checkAnswer(q, reply(p, cur.Epoch()), epochs); err != nil {
		t.Fatalf("true reply rejected: %v", err)
	}
	if err := checkAnswer(q, reply((p+1)%8, cur.Epoch()), epochs); err == nil {
		t.Fatal("wrong partition accepted")
	}
	if err := checkAnswer(q, reply(p, cur.Epoch()+1), epochs); err == nil {
		t.Fatal("unknown epoch accepted")
	}
}

func itoa(x int64) string { return strconv.FormatInt(x, 10) }

// TestRunsReportEveryMetric drives both modes of a small workload end to
// end and holds each to its metric list and to zero failed checks; the
// traced mode includes the cross-checks of the direct calls and of the
// wrapper's clock against CLUGP.LastTrace.
func TestRunsReportEveryMetric(t *testing.T) {
	c, _ := smallCorpus(t)
	cfg := corpusConfig(8)
	cfg.N = 3000
	c2, err := writeCorpus(filepath.Join(t.TempDir(), "g2.cgr"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"CLUGP", "HDRF"} {
		for _, traced := range []bool{false, true} {
			b := newBench(workload{name: "test", algo: algo, k: 8, serveShare: 0.3}, []*corpus{c, c2}, t.TempDir(), 5)
			m := map[string]metric{}
			var err error
			if traced {
				err = b.traced(100*time.Millisecond, 600*time.Millisecond, m)
			} else {
				err = b.untraced(700*time.Millisecond, m)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", algo, traced, err)
			}
			want := []string{"partition_s", "replication_factor", "relative_balance", "peak_heap_mb",
				"query_per_s", "query_p50_us", "reload_ms"}
			if traced {
				want = []string{"stream.passes", "store.decode_edges", "store.decode_s", "cluster.pass1_s",
					"cluster.clusters", "cluster.build_s", "cluster.crossing_edges", "game.solve_s", "game.rounds",
					"game.moves", "partition.transform_s", "partition.overflow_edges", "partition.score_s",
					"metrics.observe_s", "store.emit_s", "store.result_bytes", "serve.handler_us", "serve.lookup_ns",
					"serve.reload_load_ms", "trace.unattributed_s", "trace.overhead_s", "trace.clock_gap_s"}
			}
			for _, name := range want {
				if _, ok := m[name]; !ok {
					t.Errorf("%s traced=%v: no %s", algo, traced, name)
				}
			}
			if len(m) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", algo, traced, len(m), len(want))
			}
			if b.attempted == 0 || b.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", algo, traced, b.failed, b.attempted)
			}
		}
	}
}

// TestCheckClocksRejectsDisagreement holds the clock check to both sides of
// its tolerance: intervals that match CLUGP's timings pass, and a pass 3
// that CLUGP timed 10% longer than the wrapper saw fails.
func TestCheckClocksRejectsDisagreement(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Pass 1 at 0, the build scans at 300 and 500, pass 3 at 1500; end at 2200.
	ps := []pass{{start: at(0)}, {start: at(300)}, {start: at(500)}, {start: at(1500)}}
	lt := &partition.Trace{
		ClusterTime:   300 * time.Millisecond,
		BuildTime:     450 * time.Millisecond,
		GameTime:      752 * time.Millisecond,
		TransformTime: 700 * time.Millisecond,
	}
	gap, err := checkClocks(ps, at(2200), lt)
	if err != nil || gap != 2*time.Millisecond {
		t.Fatalf("matching clocks: gap %v, err %v; want 2ms, nil", gap, err)
	}
	lt.TransformTime = 770 * time.Millisecond
	if gap, err = checkClocks(ps, at(2200), lt); err == nil || gap != 70*time.Millisecond {
		t.Fatalf("pass 3 70ms apart: gap %v, err %v; want 70ms and an error", gap, err)
	}
}
