package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"repro/internal/graph"
	qmetrics "repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/store"
)

// clugpTau is CLUGP's imbalance factor (its default); HDRF has no hard cap.
const clugpTau = 1.0

// newPartitioner returns a fresh partitioner with its default parameters;
// seed drives CLUGP's game.
func newPartitioner(algo string, seed uint64) partition.Partitioner {
	if algo == "HDRF" {
		return &partition.HDRF{}
	}
	return &partition.CLUGP{Seed: seed}
}

// partitionOnce runs the partition phase once, from a collected heap and
// with a fresh partitioner so that nothing carries over from earlier runs,
// and returns its wall time. Its output is checked, and its quality must
// equal the first run's; a run that fails either counts as failed. With
// heap set it also returns the run's peak heap above the heap it started
// from.
func (b *bench) partitionOnce(in *input, heap bool) (time.Duration, uint64, error) {
	runtime.GC()
	var hw *heapWatch
	if heap {
		hw = watchHeap()
	}
	t0 := time.Now()
	res, err := partitionToResult(newPartitioner(b.w.algo, in.c.seed), in.c.path, in.cpr, b.w.k)
	wall := time.Since(t0)
	var peak uint64
	if heap {
		peak = hw.stop()
	}
	if err != nil {
		return 0, 0, err
	}
	b.checkQuality(in, res.Quality)
	logf("partition %s k=%d: %.3fs, RF %.4f, balance %.5f", b.w.algo, b.w.k, wall.Seconds(),
		res.Quality.ReplicationFactor, res.Quality.RelativeBalance)
	return wall, peak, nil
}

// checkQuality counts one checked run of in: its result file must pass
// checkResult and its quality must equal the first run's.
func (b *bench) checkQuality(in *input, q *qmetrics.Quality) {
	err := checkResult(in.cpr, b.w, in.c, q)
	if in.ref == nil {
		in.ref = q
	} else if err == nil && !reflect.DeepEqual(q, in.ref) {
		err = fmt.Errorf("run quality %+v differs from the first run's %+v", q, in.ref)
	}
	b.add(err)
}

// partitionRuns repeats the partition phase while the budget lasts, and at
// least minRuns times, and returns the wall times in seconds.
func (b *bench) partitionRuns(in *input, budget time.Duration, minRuns int) ([]float64, error) {
	var walls []float64
	var last time.Duration
	for start := time.Now(); len(walls) < minRuns || time.Since(start)+last <= budget; {
		wall, _, err := b.partitionOnce(in, false)
		if err != nil {
			return nil, err
		}
		last = wall
		walls = append(walls, wall.Seconds())
	}
	return walls, nil
}

// peakHeap runs the partition phase once with the collector at GOGC=1 and
// returns the peak live heap the collector measured. At that setting a
// collection follows every allocation of 1% of the heap, so the largest
// live heap any collection measures is the run's peak, and it repeats
// exactly between processes; sampling the heap at the default setting gave
// peaks 30% apart, depending on where the collections happened to fall. The
// run also warms the process up; its time is not reported.
func (b *bench) peakHeap(in *input) (uint64, error) {
	old := debug.SetGCPercent(1)
	defer debug.SetGCPercent(old)
	_, peak, err := b.partitionOnce(in, true)
	logf("peak heap %.1f MB", float64(peak)/(1<<20))
	return peak, err
}

// partitionToResult is what clugp -stream -result does: stream the CGR3
// file through RunOutOfCore in natural order with a serve.Builder on Emit,
// then commit the .cpr through an AtomicWriter.
func partitionToResult(p partition.Partitioner, in, out string, k int) (*partition.Result, error) {
	src, err := store.OpenMmap(in)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	b, err := serve.NewBuilder(src.NumVertices(), k)
	if err != nil {
		return nil, err
	}
	res, err := partition.RunOutOfCore(p, src, k, b.Observe)
	if err != nil {
		return nil, err
	}
	if err := writeResult(out, b.Result(res.Algorithm, res.Order.String())); err != nil {
		return nil, err
	}
	return res, nil
}

// writeResult saves a result atomically, as clugp -result does.
func writeResult(path string, r *store.Result) error {
	w, err := store.NewAtomicWriter(path)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := store.WriteResult(w, r); err != nil {
		return err
	}
	return w.Commit()
}

// readResult loads a .cpr file.
func readResult(path string) (*store.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.ReadResult(bufio.NewReaderSize(f, 1<<16))
}

// checkResult reads a written .cpr back and holds it to the corpus, to the
// run's own quality and to the invariants of a vertex-cut partitioning:
// partition sizes sum to |E| and equal the run's, none exceeds
// ceil(tau*|E|/k) for CLUGP, and the replication factor recounted from the
// replica bitsets equals the run's exactly.
func checkResult(path string, w workload, c *corpus, q *qmetrics.Quality) error {
	r, err := readResult(path)
	if err != nil {
		return fmt.Errorf("read back %s: %w", path, err)
	}
	if r.K != w.k || r.NumVertices != c.numVertices {
		return fmt.Errorf("result geometry %dv/%dk, want %dv/%dk", r.NumVertices, r.K, c.numVertices, w.k)
	}
	var sum, maxSize int64
	for _, sz := range r.Sizes {
		sum += sz
		maxSize = max(maxSize, sz)
	}
	if sum != c.numEdges {
		return fmt.Errorf("partition sizes sum to %d, corpus has %d edges", sum, c.numEdges)
	}
	if !reflect.DeepEqual(r.Sizes, q.Sizes) {
		return fmt.Errorf("result sizes differ from the run's quality accounting")
	}
	if w.algo == "CLUGP" {
		if bound := int64(math.Ceil(clugpTau * float64(c.numEdges) / float64(w.k))); maxSize > bound {
			return fmt.Errorf("partition of %d edges exceeds the balance bound %d", maxSize, bound)
		}
	}
	var verts, reps int64
	for v := 0; v < r.NumVertices; v++ {
		if n := r.Replicas.Count(graph.VertexID(v)); n > 0 {
			verts++
			reps += int64(n)
		}
	}
	if verts == 0 {
		return fmt.Errorf("result has no replicas")
	}
	if rf := float64(reps) / float64(verts); rf != q.ReplicationFactor {
		return fmt.Errorf("replication factor recounted from the replica bitsets is %v, the run reported %v", rf, q.ReplicationFactor)
	}
	if rb := float64(w.k) * float64(maxSize) / float64(c.numEdges); rb != q.RelativeBalance {
		return fmt.Errorf("relative balance from the result is %v, the run reported %v", rb, q.RelativeBalance)
	}
	return nil
}

// heapWatch samples, every few milliseconds until stopped, the live heap
// the collector measured at the end of its latest mark phase.
type heapWatch struct {
	base uint64
	peak uint64
	done chan struct{}
	quit chan struct{}
}

// readHeap returns the live heap the latest collection measured.
func readHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func watchHeap() *heapWatch {
	h := &heapWatch{base: readHeap(), done: make(chan struct{}), quit: make(chan struct{})}
	h.peak = h.base
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.peak = max(h.peak, readHeap())
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap above the starting heap.
func (h *heapWatch) stop() uint64 {
	close(h.quit)
	<-h.done
	h.peak = max(h.peak, readHeap())
	return h.peak - h.base
}
