package partition

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/stream"
)

// This file holds paper-literal reference implementations of the one-pass
// heuristics, written as plain O(k) loops over maps - no bitsets, no
// scratch reuse, no incremental extrema - and checks that the production
// loops place every edge exactly where the reference does.

// refHDRF is HDRF (Petroni et al., CIKM 2015) straight from the paper:
// for each edge, score every partition with
//
//	C_rep(p) = g(u,p) + g(v,p),  g(x,p) = 1 + (1 - theta(x)) if p holds x
//	C_bal(p) = lambda * (maxsize - |p|) / (eps + maxsize - minsize)
//
// and take the first argmax. The floating-point expressions are evaluated
// in the same order as hdrf.go, so the comparison can be exact.
func refHDRF(edges []graph.Edge, k int, lambda float64) []int32 {
	const eps = 1.0
	holds := map[graph.VertexID]map[int]bool{}
	deg := map[graph.VertexID]int{}
	sizes := make([]int64, k)
	out := make([]int32, len(edges))
	for i, e := range edges {
		u, v := e.Src, e.Dst
		deg[u]++
		deg[v]++
		du, dv := float64(deg[u]), float64(deg[v])
		thetaU := du / (du + dv)
		thetaV := 1 - thetaU

		maxSize, minSize := sizes[0], sizes[0]
		for _, s := range sizes {
			maxSize = max(maxSize, s)
			minSize = min(minSize, s)
		}
		best, bestScore := 0, -1.0
		for p := 0; p < k; p++ {
			var crep float64
			if holds[u][p] {
				crep += 1 + (1 - thetaU)
			}
			if holds[v][p] {
				crep += 1 + (1 - thetaV)
			}
			cbal := lambda * float64(maxSize-sizes[p]) / (eps + float64(maxSize-minSize))
			if score := crep + cbal; score > bestScore {
				best, bestScore = p, score
			}
		}
		out[i] = int32(best)
		sizes[best]++
		refHold(holds, u, best)
		refHold(holds, v, best)
	}
	return out
}

// refGreedy is PowerGraph's greedy rule (Gonzalez et al., OSDI 2012) over
// the replica sets A(u), A(v) seen so far: the least-loaded partition of
// A(u) ∩ A(v) if non-empty, else of A(u) ∪ A(v) if non-empty, else the
// least-loaded partition overall. Ties go to the lowest partition id.
func refGreedy(edges []graph.Edge, k int) []int32 {
	holds := map[graph.VertexID]map[int]bool{}
	sizes := make([]int64, k)
	out := make([]int32, len(edges))
	leastLoaded := func(ok func(p int) bool) int {
		best := -1
		for p := 0; p < k; p++ {
			if ok(p) && (best < 0 || sizes[p] < sizes[best]) {
				best = p
			}
		}
		return best
	}
	for i, e := range edges {
		u, v := e.Src, e.Dst
		p := leastLoaded(func(p int) bool { return holds[u][p] && holds[v][p] })
		if p < 0 {
			p = leastLoaded(func(p int) bool { return holds[u][p] || holds[v][p] })
		}
		if p < 0 {
			p = leastLoaded(func(int) bool { return true })
		}
		out[i] = int32(p)
		sizes[p]++
		refHold(holds, u, p)
		refHold(holds, v, p)
	}
	return out
}

func refHold(holds map[graph.VertexID]map[int]bool, v graph.VertexID, p int) {
	if holds[v] == nil {
		holds[v] = map[int]bool{}
	}
	holds[v][p] = true
}

// referenceGraphs are small seeded graphs covering the shapes where the
// production loops' shortcuts could diverge from the paper's definition:
// self-loops, duplicate edges, a hub, no edges at all, and web graphs with
// skewed degrees - the larger one with |E| far above every k tested, so the
// minimum partition size climbs through dozens of levels.
func referenceGraphs() map[string]*graph.Graph {
	rng := newTestRNG(71)
	multi := make([]graph.Edge, 0, 600)
	for len(multi) < cap(multi) {
		u := graph.VertexID(rng.Intn(40))
		v := graph.VertexID(rng.Intn(40))
		if rng.Intn(10) == 0 {
			v = u // self-loop
		}
		multi = append(multi, graph.Edge{Src: u, Dst: v})
		if rng.Intn(5) == 0 {
			multi = append(multi, graph.Edge{Src: u, Dst: v}) // duplicate
		}
	}
	spokes := starGraph(120).Edges
	spokes = append(spokes, spokes...) // every spoke twice
	return map[string]*graph.Graph{
		"multigraph": graph.New(40, multi),
		"self-loops": graph.New(3, []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 1}, {Src: 1, Dst: 1}, {Src: 2, Dst: 0}, {Src: 2, Dst: 2}}),
		"duplicates": graph.New(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 2, Dst: 3}, {Src: 0, Dst: 1}, {Src: 2, Dst: 3}}),
		"star":       graph.New(120, spokes),
		"empty":      graph.New(5, nil),
		"web":        gen.Web(gen.WebConfig{N: 400, OutDegree: 5, IntraSite: 0.8, Seed: 72}),
		"web-large":  gen.Web(gen.WebConfig{N: 2000, OutDegree: 6, IntraSite: 0.8, Seed: 73}),
	}
}

// referenceKs spans k=1, the 64-bit word boundary of the replica bitsets
// (64, 65, 128), the benchmark's k=256, and k > |E| on the hand-written
// graphs.
var referenceKs = []int{1, 2, 7, 64, 65, 128, 256}

func checkAgainstReference(t *testing.T, name string, p Partitioner, ref func([]graph.Edge, int) []int32) {
	t.Helper()
	for gname, g := range referenceGraphs() {
		for _, k := range referenceKs {
			want := ref(g.Edges, k)
			got, err := p.Partition(stream.Of(g.Edges).Source(g.NumVertices), k)
			if err != nil {
				t.Fatalf("%s on %s k=%d: %v", name, gname, k, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s on %s k=%d: %d assignments, reference %d", name, gname, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					e := g.Edges[i]
					t.Fatalf("%s on %s k=%d: edge %d (%d,%d) placed on %d, reference %d",
						name, gname, k, i, e.Src, e.Dst, got[i], want[i])
				}
			}
		}
	}
}

// TestHDRFMatchesReference: HDRF's candidates-plus-minP best response with
// its incrementally tracked sizes agrees edge for edge with refHDRF's scan
// of all k partitions, from a replication-dominated lambda (ties between
// partitions holding no endpoint decided by size alone) through the
// default to a balance-dominated one.
func TestHDRFMatchesReference(t *testing.T) {
	for _, lambda := range []float64{1e-3, 1.1, 3, 100} {
		h := &HDRF{BalanceWeight: lambda}
		checkAgainstReference(t, fmt.Sprintf("HDRF(lambda=%v)", lambda), h, func(edges []graph.Edge, k int) []int32 {
			return refHDRF(edges, k, lambda)
		})
	}
}

// TestGreedyMatchesReference: Greedy's bitset intersect/union walk agrees
// edge for edge with refGreedy.
func TestGreedyMatchesReference(t *testing.T) {
	checkAgainstReference(t, "Greedy", &Greedy{}, refGreedy)
}

// TestReferenceResumeMidLevel kills HDRF and Greedy runs at k=256 at a
// checkpoint where the partition sizes are partway through a level - the
// least-loaded partition is not partition 0 - and requires the resumed
// run, which rebuilds its size tracking from the checkpoint, to agree edge
// for edge with the uninterrupted reference.
func TestReferenceResumeMidLevel(t *testing.T) {
	g := checkpointTestGraph()
	const k = 256
	for name, ref := range map[string]func([]graph.Edge, int) []int32{
		"HDRF":   func(edges []graph.Edge, k int) []int32 { return refHDRF(edges, k, 1.1) },
		"Greedy": refGreedy,
	} {
		t.Run(name, func(t *testing.T) {
			want := ref(g.Edges, k)
			ckPath := filepath.Join(t.TempDir(), "run.cpk")
			crashP, err := New(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			crashed := runUntilCrash(t, crashP, g, k, OutOfCoreOptions{
				Checkpoint: &CheckpointOptions{Path: ckPath, EveryEdges: ckCadence}}, ckCrashAt)
			c, _, err := store.LoadCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}

			sizes := make([]int64, k)
			for _, p := range want[:c.Offset] {
				sizes[p]++
			}
			minP := 0
			for p, s := range sizes {
				if s < sizes[minP] {
					minP = p
				}
			}
			if minP == 0 {
				t.Fatalf("checkpoint at %d is at the start of a size level (sizes[0]=%d is minimal); the test needs minP != 0", c.Offset, sizes[0])
			}

			resumed, _ := resumeFrom(t, name, g, k, c, ckPath, OutOfCoreOptions{})
			got := append(append([]int32(nil), crashed[:c.Offset]...), resumed...)
			if len(got) != len(want) {
				t.Fatalf("prefix+resume covers %d edges, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("edge %d placed on %d after resume at %d (minP %d), reference %d", i, got[i], c.Offset, minP, want[i])
				}
			}
		})
	}
}
