package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/xrand"
)

// corpusConfig is the shape of the IT preset (internal/bench/datasets.go:
// out-degree 18, site mean 150, intra-site 0.88, copy 0.65) at 4x scale -
// 140k vertices and about 2.5M edges - seeded by the benchmark's seed. At
// this size an HDRF run at k=256 takes 1.5-3.5 s, so a run of the
// benchmark fits ten or more of them.
func corpusConfig(seed uint64) gen.WebConfig {
	return gen.WebConfig{
		N: 140000, OutDegree: 18, SiteMean: 150,
		IntraSite: 0.88, CopyFactor: 0.65, Seed: seed,
	}
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 9

// corpusGraphs is how many graphs the corpus holds, each from its own seed.
// The work of a partition run depends on the graph and on CLUGP's game
// seed: one seed's CLUGP runs took 8% longer than another's on the same
// machine. Partition times are means over the graphs, so the spread over
// seeds shrinks.
const corpusGraphs = 3

// edgeSample is how many graph edges the serve mix draws its edge queries
// from.
const edgeSample = 1 << 14

// corpus is one generated graph on disk plus what the checks and the query
// mix need to know about it.
type corpus struct {
	seed        uint64 // the graph's seed, also CLUGP's game seed
	path        string
	numVertices int
	numEdges    int64
	edges       []graph.Edge // a seeded sample of the graph's edges
}

// setupCorpus generates the corpus's graphs from seed and writes each as
// CGR3 into dir, setupRepeats times, and returns them with the median
// set-up time in seconds.
func setupCorpus(dir string, seed uint64) ([]*corpus, float64, error) {
	cs := make([]*corpus, corpusGraphs)
	times := make([]float64, 0, setupRepeats)
	for range setupRepeats {
		start := time.Now()
		for i := range cs {
			var err error
			path := filepath.Join(dir, fmt.Sprintf("corpus-%d.cgr", i))
			if cs[i], err = writeCorpus(path, corpusConfig(seed*corpusGraphs+uint64(i)+1)); err != nil {
				return nil, 0, err
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return cs, median(times), nil
}

// writeCorpus generates the graph of cfg and encodes it to path as CGR3 in
// natural (generation) order.
func writeCorpus(path string, cfg gen.WebConfig) (*corpus, error) {
	g := gen.Web(cfg)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := store.WriteFormat(bw, g, store.FormatCGR3); err != nil {
		f.Close()
		return nil, fmt.Errorf("encode corpus: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed ^ 0x5eed)
	sample := make([]graph.Edge, edgeSample)
	for i := range sample {
		sample[i] = g.Edges[rng.Intn(len(g.Edges))]
	}
	return &corpus{seed: cfg.Seed, path: path, numVertices: g.NumVertices, numEdges: int64(len(g.Edges)), edges: sample}, nil
}
