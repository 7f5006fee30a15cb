package game

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// This file holds a paper-literal reference for Algorithm 3 and for the
// CLUGP-G placement, written as plain O(k) loops over maps - no tournament
// tree, no touched list, no scratch reuse - and checks that the production
// game picks exactly what the reference picks, cluster for cluster.

// refSolve plays Algorithm 3 batch by batch the way Solve documents it:
// random initial strategies seeded per batch and restart, then rounds of
// sequential best responses until no cluster moves. A best response scores
// every partition p != cur, takes the argmin of (cost, load, index), and
// moves only if that is more than 1e-9 cheaper than staying. Every accepted
// move must strictly lower the batch potential (Theorem 4). Costs use the
// same floating-point expressions as playBatch, so the comparison can be
// exact.
func refSolve(t *testing.T, cg *cluster.Graph, cfg Config) (assign []int32, rounds int, moves int64) {
	t.Helper()
	cfg = cfg.withDefaults()
	n := cg.NumClusters
	batch := cfg.BatchSize
	if batch <= 0 || batch > n {
		batch = n
	}
	assign = make([]int32, n)
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		var kept []int32
		var keptPot float64
		var batchRounds int
		for r := 0; r < cfg.Restarts; r++ {
			a, rr, mm := refPlay(t, cg, cfg, cfg.Seed+uint64(r)*0x9e3779b97f4a7c15, lo, hi)
			batchRounds += rr
			moves += mm
			pot := batchPotential(cg, a, cfg, lo, hi, make([]int64, cfg.K))
			if r == 0 || pot < keptPot {
				kept, keptPot = a, pot
			}
		}
		copy(assign[lo:hi], kept)
		rounds = max(rounds, batchRounds)
	}
	return assign, rounds, moves
}

// refPlay is one best-response game over the batch [lo,hi); a[c-lo] is
// cluster c's partition.
func refPlay(t *testing.T, cg *cluster.Graph, cfg Config, seed uint64, lo, hi int) (a []int32, rounds int, moves int64) {
	t.Helper()
	k := cfg.K
	inBatch := func(c cluster.ID) bool { return int(c) >= lo && int(c) < hi }
	rng := xrand.New(seed ^ (0x9e3779b97f4a7c15 * uint64(lo+1)))
	a = make([]int32, hi-lo)
	load := make([]int64, k)
	for c := lo; c < hi; c++ {
		a[c-lo] = int32(rng.Intn(k))
		load[a[c-lo]] += cg.WeightOf(cluster.ID(c))
	}

	// Theorem 5's lambda on the weight scale, over the batch's clusters:
	// k^2 * sum_i |e(ci,V\ci)| / (sum_i w_i)^2.
	lambda := cfg.Lambda
	if lambda == 0 {
		var sumW, adjacency int64
		for c := lo; c < hi; c++ {
			sumW += cg.WeightOf(cluster.ID(c))
			adjacency += cg.TotalAdjacency(cluster.ID(c))
		}
		lambda = 1
		if sumW > 0 {
			lambda = float64(k*k) * float64(adjacency/2) / (float64(sumW) * float64(sumW))
		}
	}
	wLoad := 2 * cfg.RelWeight * lambda / float64(k)
	wCut := 2 * (1 - cfg.RelWeight) * 0.5

	pot := batchPotential(cg, a, cfg, lo, hi, make([]int64, k))
	for rounds = 1; rounds <= cfg.MaxRounds; rounds++ {
		changed := false
		for c := lo; c < hi; c++ {
			ci := cluster.ID(c)
			size := cg.WeightOf(ci)
			cur := a[c-lo]
			wTo := map[int32]float64{}
			var totalW float64
			for _, arc := range cg.Adj[ci] {
				if inBatch(arc.To) {
					wTo[a[int(arc.To)-lo]] += float64(arc.W)
					totalW += float64(arc.W)
				}
			}
			// cost is Equation 11 for ci on p: its load after the move
			// and the in-batch arc weight it would cut.
			cost := func(p int32) float64 {
				l := load[p]
				if p != cur {
					l += size
				}
				return wLoad*float64(size)*float64(l) + wCut*(totalW-wTo[p])
			}
			best, bestCost := int32(-1), 0.0
			for p := int32(0); p < int32(k); p++ {
				if p == cur {
					continue
				}
				if c := cost(p); best < 0 || c < bestCost || c == bestCost && load[p] < load[best] {
					best, bestCost = p, c
				}
			}
			if best < 0 || !(bestCost < cost(cur)-1e-9) {
				continue
			}
			load[cur] -= size
			load[best] += size
			a[c-lo] = best
			after := batchPotential(cg, a, cfg, lo, hi, make([]int64, k))
			if !(after < pot) {
				t.Fatalf("cluster %d moving %d->%d: batch potential %v -> %v, want a strict decrease", c, cur, best, pot, after)
			}
			pot = after
			moves++
			changed = true
		}
		if !changed {
			break
		}
	}
	return a, rounds, moves
}

// refGreedyAssign is longest-processing-time placement: clusters by
// descending weight (ties by id), each onto the lowest-index least-loaded
// partition.
func refGreedyAssign(cg *cluster.Graph, k int) []int32 {
	order := make([]cluster.ID, cg.NumClusters)
	for c := range order {
		order[c] = cluster.ID(c)
	}
	sort.SliceStable(order, func(i, j int) bool { return cg.WeightOf(order[i]) > cg.WeightOf(order[j]) })
	load := make([]int64, k)
	out := make([]int32, cg.NumClusters)
	for _, c := range order {
		best := 0
		for p := range load {
			if load[p] < load[best] {
				best = p
			}
		}
		out[c] = int32(best)
		load[best] += cg.WeightOf(c)
	}
	return out
}

var referenceKs = []int{1, 2, 7, 64, 65, 256}

// referenceGraphs are the cluster graphs the reference comparisons run on:
// two from testClusterGraph and one IT-shaped web graph (the IT preset's
// out-degree, site size, intra-site share and copy factor) clustered in
// stream order with CLUGP's Vmax = 0.2*|E|/32.
func referenceGraphs(t *testing.T) []namedGraph {
	t.Helper()
	g := gen.Web(gen.WebConfig{N: 800, OutDegree: 18, SiteMean: 150, IntraSite: 0.88, CopyFactor: 0.65, Seed: 14})
	s := stream.NewView(g, stream.Natural, 0).Source(g.NumVertices)
	res, err := cluster.Run(s, cluster.Config{Vmax: int64(0.2 * float64(s.Len()) / 32)})
	if err != nil {
		t.Fatal(err)
	}
	res.Compact()
	it, err := cluster.BuildGraph(s, res)
	if err != nil {
		t.Fatal(err)
	}
	return []namedGraph{
		{"coarse", testClusterGraph(t, 600, 8, 4)},
		{"fine", testClusterGraph(t, 1000, 32, 9)},
		{"it", it},
	}
}

type namedGraph struct {
	name string
	cg   *cluster.Graph
}

func TestSolveMatchesReference(t *testing.T) {
	for _, ng := range referenceGraphs(t) {
		name, cg := ng.name, ng.cg
		for _, k := range referenceKs {
			for _, batch := range []int{0, 1, 100, 6400} {
				for _, restarts := range []int{1, 3} {
					for _, lambda := range []float64{0, 1e-12, 100} {
						cfg := Config{K: k, BatchSize: batch, Restarts: restarts, Lambda: lambda, Seed: 3, Threads: 2}
						label := fmt.Sprintf("%s/k=%d/batch=%d/restarts=%d/lambda=%g", name, k, batch, restarts, lambda)
						want, rounds, moves := refSolve(t, cg, cfg)
						got, err := Solve(cg, cfg)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for c := range want {
							if got.Partition[c] != want[c] {
								t.Fatalf("%s: cluster %d on partition %d, reference %d", label, c, got.Partition[c], want[c])
							}
						}
						if got.Rounds != rounds || got.Moves != moves {
							t.Fatalf("%s: %d rounds/%d moves, reference %d/%d", label, got.Rounds, got.Moves, rounds, moves)
						}
					}
				}
			}
		}
	}
}

func TestGreedyAssignMatchesReference(t *testing.T) {
	for _, ng := range referenceGraphs(t) {
		name, cg := ng.name, ng.cg
		for _, k := range []int{1, 7, 64, 65, 256} {
			want := refGreedyAssign(cg, k)
			got := GreedyAssign(cg, k)
			for c := range want {
				if got.Partition[c] != want[c] {
					t.Fatalf("%s/k=%d: cluster %d on partition %d, reference %d", name, k, c, got.Partition[c], want[c])
				}
			}
		}
	}
}

// TestLoadTreeMatchesScan drives the tree with random load changes and
// checks min and minExcept against plain scans after each one.
func TestLoadTreeMatchesScan(t *testing.T) {
	for _, k := range []int{1, 7, 64, 65, 256} {
		rng := xrand.New(uint64(k))
		load := make([]int64, k)
		var tree loadTree
		tree.build(load)
		for step := 0; step < 2000; step++ {
			p := int32(rng.Intn(k))
			load[p] += int64(rng.Intn(3)) - 1 // small steps keep equal loads common
			tree.update(p)
			if want := refMinExcept(load, -1); tree.min() != want {
				t.Fatalf("k=%d step %d: min %d, scan %d", k, step, tree.min(), want)
			}
			cur := int32(rng.Intn(k))
			if got, want := tree.minExcept(cur), refMinExcept(load, cur); got != want {
				t.Fatalf("k=%d step %d: minExcept(%d) = %d, scan %d", k, step, cur, got, want)
			}
		}
	}
}

// refMinExcept is the lowest-index least-loaded partition other than skip,
// or -1 if there is none.
func refMinExcept(load []int64, skip int32) int32 {
	best := int32(-1)
	for p := range load {
		if int32(p) != skip && (best < 0 || load[p] < load[best]) {
			best = int32(p)
		}
	}
	return best
}
