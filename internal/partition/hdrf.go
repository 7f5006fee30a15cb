package partition

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/stream"
)

// HDRF is High-Degree (are) Replicated First (Petroni et al., CIKM 2015),
// the paper's state-of-the-art one-pass baseline. It places each edge on the
// partition that maximizes a replication term, which prefers partitions
// already holding an endpoint - weighted so the LOWER-degree endpoint counts
// more, which steers cuts toward high-degree vertices - plus a balance term
// (the lowest index wins ties):
//
//	theta(u)   = delta(u) / (delta(u)+delta(v))          (partial degrees)
//	g(u,p)     = 1 + (1 - theta(u))  if p holds u, else 0
//	C_rep(p)   = g(u,p) + g(v,p)
//	C_bal(p)   = BalanceWeight * (maxsize - |p|) / (eps + maxsize - minsize)
//
// Like Greedy it keeps the full P(v) table. Unlike the paper's k-wide scan,
// which is the O(k) per-edge cost behind Figure 7, it finds the same argmax
// in O(k/64 + |P(u)∪P(v)|): a partition holding neither endpoint scores
// C_bal alone, which strictly decreases in |p| over the accepted
// BalanceWeight range, so the best such partition is the lowest-index
// least-loaded one, and scoring it plus P(u)∪P(v) covers every candidate.
//
// An HDRF value keeps its replica table, degree table and counters as
// scratch reused across runs; the per-edge scoring loop is allocation-free.
type HDRF struct {
	// BalanceWeight is the lambda of the HDRF paper (its default 1.1 keeps
	// near-perfect balance; larger trades quality for balance). Zero means
	// 1.1; any other value outside [1e-100, 1e100] - negative, NaN, ±Inf or
	// absurdly large or small - makes a run fail with an error.
	BalanceWeight float64

	rs   metrics.ReplicaSets
	deg  []uint32
	load loadTracker

	// resume holds checkpoint state stashed by RestoreState until the next
	// run consumes it right after its tables reset.
	resume *hdrfResume
}

const (
	defaultBalanceWeight = 1.1
	// The accepted BalanceWeight range keeps C_bal strictly decreasing in
	// |p| for any partition size below 2^52: lambda*(maxsize-|p|) neither
	// overflows nor, divided by eps+spread, underflows into ties. The
	// candidates-plus-minP argmax is exact only under that condition.
	minBalanceWeight = 1e-100
	maxBalanceWeight = 1e100
)

// hdrfResume is the stashed checkpoint state of an HDRF run, in the
// canonical encodings of metrics/state.go.
type hdrfResume struct {
	replicas []byte
	degrees  []byte
	sizes    []int64
}

// SnapshotState implements Checkpointer: the replica table, partial-degree
// table and partition sizes - everything the per-edge loop reads - in the
// canonical vertex-major encoding. The size extrema and minP are not
// stored: they are functions of the sizes, so restore recomputes them.
func (h *HDRF) SnapshotState(c *store.Checkpoint) error {
	c.AddSection(sectionHDRFReplicas, h.rs.AppendState(nil))
	c.AddSection(sectionHDRFDegrees, metrics.AppendDegreeState(nil, h.deg))
	c.AddSection(sectionHDRFSizes, metrics.AppendSizesState(nil, h.load.sizes))
	return nil
}

// RestoreState implements Checkpointer, stashing the checkpoint's sections
// for the next run to load once its tables are at the run's geometry.
func (h *HDRF) RestoreState(c *store.Checkpoint) error {
	rep, err := loadSection(c, sectionHDRFReplicas)
	if err != nil {
		return err
	}
	deg, err := loadSection(c, sectionHDRFDegrees)
	if err != nil {
		return err
	}
	szs, err := loadSection(c, sectionHDRFSizes)
	if err != nil {
		return err
	}
	sizes := make([]int64, c.K)
	rem, err := metrics.LoadSizesState(sizes, szs)
	if err != nil {
		return err
	}
	if err := consumed(rem, "hdrf sizes"); err != nil {
		return err
	}
	h.resume = &hdrfResume{replicas: rep, degrees: deg, sizes: sizes}
	return nil
}

// consumeResume loads the stashed checkpoint state into the just-reset
// tables.
func (h *HDRF) consumeResume() error {
	r := h.resume
	h.resume = nil
	rem, err := h.rs.LoadState(r.replicas)
	if err != nil {
		return err
	}
	if err := consumed(rem, "hdrf replica"); err != nil {
		return err
	}
	rem, err = metrics.LoadDegreeState(h.deg, r.degrees)
	if err != nil {
		return err
	}
	if err := consumed(rem, "hdrf degree"); err != nil {
		return err
	}
	h.load.load(r.sizes)
	return nil
}

// Name implements Partitioner.
func (h *HDRF) Name() string { return "HDRF" }

// PreferredOrder implements Partitioner.
func (h *HDRF) PreferredOrder() stream.Order { return stream.Random }

// Partition implements Partitioner.
func (h *HDRF) Partition(src stream.Source, k int) ([]int32, error) {
	return partitionVia(h, src, k)
}

// PartitionInto implements IntoPartitioner. The sink is constructed here,
// in a concrete (devirtualized) call chain, so it stays on the stack and
// the repeated-run path keeps its zero-allocation contract.
func (h *HDRF) PartitionInto(src stream.Source, k int, assign []int32) error {
	if err := checkInto(src, k, assign); err != nil {
		return err
	}
	sink := assignSink{assign: assign}
	return h.run(src, k, &sink)
}

// PartitionStream implements StreamingPartitioner.
func (h *HDRF) PartitionStream(src stream.Source, k int, emit Emit) error {
	return streamVia(h, src, k, emit)
}

func (h *HDRF) run(src stream.Source, k int, sink *assignSink) error {
	lam := h.BalanceWeight
	if lam == 0 {
		lam = defaultBalanceWeight
	}
	if !(lam >= minBalanceWeight && lam <= maxBalanceWeight) {
		return fmt.Errorf("partition: HDRF balance weight %v outside [%g, %g] (0 selects %v)",
			h.BalanceWeight, minBalanceWeight, maxBalanceWeight, defaultBalanceWeight)
	}
	const eps = 1.0
	h.rs.Reset(src.NumVertices(), k)
	h.deg = resetUint32(h.deg, src.NumVertices())
	h.load.reset(k)
	if h.resume != nil {
		if err := h.consumeResume(); err != nil {
			return err
		}
	}
	rs, deg, lt := &h.rs, h.deg, &h.load
	words := rs.Words()

	return forEachBlock(src, func(blk []graph.Edge) error {
		out := sink.grab(len(blk))
		sizes := lt.sizes
		for j, e := range blk {
			u, v := e.Src, e.Dst
			deg[u]++
			deg[v]++
			du, dv := float64(deg[u]), float64(deg[v])
			thetaU := du / (du + dv)
			thetaV := 1 - thetaU
			gU := 1 + (1 - thetaU)
			gV := 1 + (1 - thetaV)

			maxSize, minSize := lt.maxSize, lt.minSize
			den := eps + float64(maxSize-minSize)
			// Start from the best partition holding neither endpoint (see
			// the type comment), then score the partitions in P(u)∪P(v);
			// ties go to the lower index, as in a scan of all k.
			best, bestScore := lt.minP, lam*float64(maxSize-minSize)/den
			for w := 0; w < words; w++ {
				wu, wv := rs.Word(u, w), rs.Word(v, w)
				for m := wu | wv; m != 0; m &= m - 1 {
					bit := m & -m
					p := w<<6 | bits.TrailingZeros64(m)
					var crep float64
					if wu&bit != 0 {
						crep += gU
					}
					if wv&bit != 0 {
						crep += gV
					}
					cbal := lam * float64(maxSize-sizes[p]) / den
					if score := crep + cbal; score > bestScore || score == bestScore && p < best {
						bestScore = score
						best = p
					}
				}
			}
			out[j] = int32(best)
			lt.add(best)
			rs.Add(u, best)
			rs.Add(v, best)
		}
		return sink.commit(blk, out)
	})
}

// StateBytes implements StateSizer: replica bitsets + degree table + sizes.
func (h *HDRF) StateBytes(numVertices, numEdges, k int) int64 {
	words := (k + 63) / 64
	return int64(numVertices)*int64(words)*8 + int64(numVertices)*4 + int64(k)*8
}
