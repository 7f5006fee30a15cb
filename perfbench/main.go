// Command perfbench is the repository's end-to-end benchmark. It generates a
// web-graph corpus from a seed, partitions it out of core into a servable
// .cpr result (the clugp -stream -result path), serves that result over HTTP
// under an assumed mix of queries and reloads (the partsrv path), checks
// every output, and prints one JSON line of metrics:
//
//	bash perfbench/run.sh --workload clugp-web-k256 --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
// the same workload once more under instruments and reports the per-layer
// metrics instead, timed from outside the program with a timing
// stream.Source wrapper and the Emit callback. CLUGP's own trace of the
// same run splits build from game and is held to the wrapper's clock;
// direct calls into the layers' exported functions cross-check its counts.
// The last line of standard output is the result; progress goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	qmetrics "repro/internal/metrics"
)

// workload is one configuration of the pipeline. Every workload runs both
// phases - partition, then serve the result - so each reports every
// end-to-end metric; they differ in which layers carry the cost.
type workload struct {
	name string
	algo string // "CLUGP" or "HDRF"
	k    int
	// serveShare is the part of the measured time given to the serve
	// phase; the partition runs get the rest.
	serveShare float64
}

var workloads = []workload{
	// The paper's regime: a web graph at large k. Every CLUGP layer works.
	{name: "clugp-web-k256", algo: "CLUGP", k: 256, serveShare: 0.3},
	// The one-pass baseline on the same file: per-edge O(k) scoring.
	{name: "hdrf-web-k256", algo: "HDRF", k: 256, serveShare: 0.3},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and the ones that failed a check.
type tally struct {
	attempted, failed int64
}

// add counts one operation, failed when err is not nil.
func (t *tally) add(err error) {
	t.attempted++
	t.fail(err)
}

// fail counts a failure already counted as attempted, and logs the first
// few to standard error.
func (t *tally) fail(err error) {
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= 10 {
		logf("FAIL: %v", err)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "seed for the corpus, the queries and CLUGP's game")
		seconds = flag.Float64("seconds", 40, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	rep, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench is the state one run of the benchmark shares across its phases.
type bench struct {
	w      workload
	inputs []*input
	seed   uint64 // seeds the corpus and the query mix
	tally
}

// input is one graph of the corpus with the result its partition runs
// write.
type input struct {
	c   *corpus
	cpr string // where partition runs write their result
	// ref is the first partition run's quality; every later run of the
	// same input must reproduce it exactly.
	ref *qmetrics.Quality
}

// newBench returns the state of one run over the corpus cs, whose results
// go into dir.
func newBench(w workload, cs []*corpus, dir string, seed uint64) *bench {
	b := &bench{w: w, seed: seed}
	for i, c := range cs {
		b.inputs = append(b.inputs, &input{c: c, cpr: filepath.Join(dir, fmt.Sprintf("result-%d.cpr", i))})
	}
	return b
}

// run executes one workload in a scratch directory under .bench_build and
// removes the directory afterwards.
func run(w workload, seed uint64, budget time.Duration, traced bool) (*report, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logf("%s seed=%d seconds=%.0f trace=%v GOMAXPROCS=%d", w.name, seed, budget.Seconds(), traced, runtime.GOMAXPROCS(0))

	cs, setupS, err := setupCorpus(dir, seed)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		logf("corpus graph of seed %d: %d vertices, %d edges", c.seed, c.numVertices, c.numEdges)
	}
	logf("setup %.3fs (median of %d)", setupS, setupRepeats)

	b := newBench(w, cs, dir, seed)
	m := map[string]metric{}
	if traced {
		partBudget := time.Duration(float64(budget) * (1 - w.serveShare))
		err = b.traced(partBudget, budget-partBudget, m)
	} else {
		err = b.untraced(budget, m)
		m["setup_s"] = metric{setupS, "s"}
	}
	if err != nil {
		return nil, err
	}
	return &report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// untraced measures the end-to-end metrics. A partition run of each graph
// at GOGC=1 gives the peak heap and warms the process up. Then timed cycles
// run while the budget lasts.
func (b *bench) untraced(budget time.Duration, m map[string]metric) error {
	start := time.Now()
	var peak float64
	for _, in := range b.inputs {
		p, err := b.peakHeap(in)
		if err != nil {
			return err
		}
		peak += float64(p) / (1 << 20) / float64(len(b.inputs))
	}
	s, err := b.startServer(b.inputs[0])
	if err != nil {
		return err
	}
	walls, err := b.cycles(s, budget-time.Since(start))
	res, serr := s.stop()
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	logf("partition walls %.4f", walls)
	var rf, rb float64
	for _, in := range b.inputs {
		rf += in.ref.ReplicationFactor / float64(len(b.inputs))
		rb += in.ref.RelativeBalance / float64(len(b.inputs))
	}
	m["partition_s"] = metric{median(walls), "s"}
	m["peak_heap_mb"] = metric{peak, "MB"}
	m["replication_factor"] = metric{rf, "ratio"}
	m["relative_balance"] = metric{rb, "ratio"}
	m["query_per_s"] = metric{res.queryPerS, "1/s"}
	m["query_p50_us"] = metric{res.p50us, "us"}
	m["reload_ms"] = metric{res.reloadMs, "ms"}
	return nil
}

// cycles runs, while the budget lasts and at least three times, a cycle of
// timed partition runs, one of each graph, followed by serve windows of the
// first graph's result, as many as give the serve phase its share of the
// time. Both phases are thus sampled over the whole run, and a slow spell
// of the shared machine weighs on both alike. It returns each cycle's mean
// partition time in seconds.
func (b *bench) cycles(s *server, budget time.Duration) ([]float64, error) {
	const minCycles = 3
	share := b.w.serveShare / (1 - b.w.serveShare)
	start := time.Now()
	var walls []float64
	var last time.Duration
	for len(walls) < minCycles || time.Since(start)+last <= budget {
		t0 := time.Now()
		var sum time.Duration
		for _, in := range b.inputs {
			wall, _, err := b.partitionOnce(in, false)
			if err != nil {
				return nil, err
			}
			sum += wall
		}
		walls = append(walls, sum.Seconds()/float64(len(b.inputs)))
		for range max(int(math.Round(share*sum.Seconds()/reloadEvery.Seconds())), 1) {
			s.window()
		}
		last = time.Since(t0)
	}
	return walls, nil
}

// median returns the median of xs (which it sorts), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
