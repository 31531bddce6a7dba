package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/corpus"
	"repro/internal/goddag"
	"repro/internal/sacx"
	"repro/internal/store"
)

// docWords is the size of every generated document.
const docWords = 8000

// shape is the part of a document's generator configuration that sets
// its cost: hierarchy count, overlap density, and whether the
// vocabulary is multibyte.
type shape struct {
	h         int
	density   float64
	multibyte bool
}

func (s shape) String() string {
	mb := ""
	if s.multibyte {
		mb = "-mb"
	}
	return fmt.Sprintf("h%d-d%.1f%s", s.h, s.density, mb)
}

// shapes covers h in {2,4,8} and density in {0.1,0.5,0.9}, a quarter of
// them multibyte. h=2 has no annotation layer, so its density does not
// matter and it appears once. The seed picks the words and spans, never
// the shapes, so every seed costs about the same.
var shapes = []shape{
	{2, 0.5, false}, {4, 0.1, false}, {4, 0.5, false}, {4, 0.9, false},
	{8, 0.1, false}, {8, 0.9, false}, {4, 0.5, true}, {8, 0.5, true},
}

// docInput is one generated distributed document and what its build
// must produce.
type docInput struct {
	id       string
	shape    int
	sources  []sacx.Source
	inBytes  int            // XML input bytes over all sources
	content  int            // document content bytes
	elements int            // total elements
	perHier  map[string]int // elements per hierarchy
	allocs   uint64         // heap allocations of one sacx.Build
}

// genDoc generates document i of a workload (shape shapes[shapeIdx])
// and builds it once, on this goroutine, to record what every later
// build and reopen must reproduce. It returns the heap-built document
// for the caller's reference answers.
func genDoc(seed int64, i, shapeIdx int) (*docInput, *goddag.Document, error) {
	sh := shapes[shapeIdx]
	cfg := corpus.DefaultConfig(docWords)
	cfg.Seed = seed*1000003 + int64(i)
	cfg.Hierarchies = sh.h
	cfg.OverlapDensity = sh.density
	if sh.multibyte {
		cfg.Vocabulary = corpus.MultibyteVocabulary
	}
	srcs, err := corpus.GenerateSources(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("generate doc %d: %w", i, err)
	}
	in := &docInput{id: fmt.Sprintf("d%02d", i), shape: shapeIdx, sources: srcs}
	for _, s := range srcs {
		in.inBytes += len(s.Data)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := sacx.Build(srcs)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, nil, fmt.Errorf("build doc %d: %w", i, err)
	}
	in.allocs = after.Mallocs - before.Mallocs
	in.content = g.Content().Len()
	in.perHier = hierCounts(g)
	for _, n := range in.perHier {
		in.elements += n
	}
	return in, g, nil
}

func hierCounts(g *goddag.Document) map[string]int {
	out := make(map[string]int)
	for _, name := range g.HierarchyNames() {
		out[name] = g.Hierarchy(name).Len()
	}
	return out
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// ingestTimes is one document's pass through sacx.Build and
// store.SaveFS.
type ingestTimes struct {
	build, save time.Duration
	scan        time.Duration // sacx.NewStream on the same sources (traced runs)
	fsNS        int64         // storage time inside the save (timed FS only)
}

// ingest builds in's sources and saves the document to path through
// fsys, checking the build against the reference. The built document is
// returned for callers that evaluate against it.
func ingest(fsys *countingFS, path string, in *docInput) (*goddag.Document, ingestTimes, error) {
	var t ingestTimes
	t0 := time.Now()
	g, err := sacx.Build(in.sources)
	t1 := time.Now()
	if err != nil {
		return nil, t, fmt.Errorf("ingest %s: %w", in.id, err)
	}
	before := fsys.totals(fsys.saveClass).NS()
	err = store.SaveFS(fsys, path, g)
	t2 := time.Now()
	if err != nil {
		return nil, t, fmt.Errorf("ingest %s: %w", in.id, err)
	}
	t.build, t.save = t1.Sub(t0), t2.Sub(t1)
	t.fsNS = fsys.totals(fsys.saveClass).NS() - before
	return g, t, nil
}

// gdagPath is where document id lives in dir.
func gdagPath(dir, id string) string { return filepath.Join(dir, id+".gdag") }

// subRand derives a sub-generator, so that adding a draw to one
// part of the setup does not shift another part's inputs.
func subRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + stream))
}
