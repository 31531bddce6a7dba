package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/store"
)

const (
	warmDocs   = 8
	readSeqLen = 1 << 15
	// warm-query's reads run in rounds, each in a fresh process, one
	// after another until the run's seconds are spent (at least
	// warmMinRounds): the round loads and materializes every document,
	// sends warmUp untimed reads that fill the plan cache and grow the
	// heap to its working size, then reads for warmSlice. A round owns
	// warmStride reads of the sequence. The set-up is repeated to time
	// it and every repetition's mapped documents leak, so the run's own
	// process carries more heap than a server would; rounds read in a
	// process that loaded the documents once, as cold-query's do.
	warmMinRounds = 4
	warmMaxRounds = 16
	warmUp        = 300
	warmSlice     = 4 * time.Second
	warmStride    = 4096
	// warmTraced is the number of reads the traced round replays.
	warmTraced = 3000
	// tracedDeadline only guards against a stalled traced pass: traced
	// passes replay a fixed number of operations, so that their counts
	// repeat exactly.
	tracedDeadline = time.Minute

	coldFleet   = 16
	coldZipfS   = 1.2
	coldBudgetQ = 4 // the budget holds 1/coldBudgetQ of the fleet's touched bytes
	// At the seed every cold load leaks its mapping and the heap it
	// materialized (about 3 MB for these documents), so one process can
	// serve only a few hundred cold loads on a small host. cold-query
	// therefore runs rounds, each in a fresh process: an untimed warm-up
	// of coldWarm reads that fills the catalog, then coldReads timed
	// reads. Rounds follow one another until the run's seconds are spent
	// (at least coldMinRounds, at most coldMaxRounds).
	coldMinRounds = 8
	coldMaxRounds = 64
	coldWarm      = 40
	coldReads     = 300
)

// coldShapes orders the fleet's shapes by popularity rank, so the
// hottest documents have the same shapes under every seed.
var coldShapes = []int{2, 6, 1, 4, 3, 5, 0, 7}

// runWarmQuery: every document resident and materialized, no budget;
// closed-loop clients send the read mix through the handler. Store and
// catalog have almost nothing to do.
func runWarmQuery(r *runner) error {
	comp, err := compileMix()
	if err != nil {
		return err
	}
	shapeOf := make([]int, warmDocs)
	for i := range shapeOf {
		shapeOf[i] = i % len(shapes)
	}
	var s *served
	if err := r.setup(func(rep int) error {
		s, _, err = newServed(r, filepath.Join(r.dir, "warm"), comp, shapeOf)
		if err != nil {
			return err
		}
		if err := s.open(0); err != nil {
			return err
		}
		return s.preload()
	}); err != nil {
		return err
	}
	rng := subRand(r.seed, 2)
	seq := readSequence(rng, warmMaxRounds*warmStride, func() int { return rng.Intn(warmDocs) })
	r.digest = digestOf("warm-query", seq)
	plan := roundPlan{
		Dir: s.dir, Answers: s.ans, Seq: seq, Preload: true,
		Stride: warmStride, Warm: warmUp, Slice: warmSlice, Traced: warmTraced,
	}
	return r.serveRounds(s, plan, warmMinRounds, warmMaxRounds)
}

// finishServed reports the flat ingest and open layers of a served
// workload and its leak readings.
func (r *runner) finishServed(s *served) error {
	s.ingestLayer(r)
	paths := make([]string, len(s.docs))
	for i, in := range s.docs {
		paths[i] = gdagPath(s.dir, in.id)
	}
	if err := openLayer(r, paths); err != nil {
		return err
	}
	r.leakCheck()
	return nil
}

// roundPlan is what a round process needs: the documents on disk, the
// catalog budget, the reference answers, the whole read sequence, and
// how a round reads its share of it. Round k owns
// Seq[k*Stride:(k+1)*Stride]: Warm untimed reads, then the timed ones.
type roundPlan struct {
	Dir     string
	Budget  int64
	IDs     []string
	Answers [][]answer
	Seq     []readOp
	Preload bool          // send every query once for every document first
	Stride  int           // reads of Seq each round owns
	Warm    int           // untimed warm-up reads
	Reads   int           // timed reads; 0: as many as Slice allows
	Slice   time.Duration // timed pass when Reads is 0
	Traced  int           // reads the traced round replays
}

// roundResult is what a round process reports back.
type roundResult struct {
	Samples     samples
	Ops, Failed int
	WallNS      int64
	PeakMB      float64
	Loads, Hits uint64
	Evictions   uint64
	Mallocs     uint64
	AllocBytes  uint64
	GCCPU       float64
	TotalCPU    float64
	WarmOps     int // untimed warm-up reads (their failures are in Failed)
	MappedMB    float64
	LiveMB      float64
	Layer       map[string]float64 // traced round only
}

// runColdQuery: a fleet of v3 files several times larger than the
// catalog budget, Zipf-skewed popularity, the same read mix. Hits, cold
// loads and evictions all occur; the store's open/materialize path and
// the catalog's load/evict path dominate.
func runColdQuery(r *runner) error {
	comp, err := compileMix()
	if err != nil {
		return err
	}
	shapeOf := make([]int, coldFleet)
	for i := range shapeOf {
		shapeOf[i] = coldShapes[i%len(coldShapes)]
	}
	var s *served
	if err := r.setup(func(rep int) error {
		s, _, err = newServed(r, filepath.Join(r.dir, "cold"), comp, shapeOf)
		return err
	}); err != nil {
		return err
	}
	// The budget is a share of the bytes the read mix materializes per
	// document, measured once, outside the timed setups, on a mapped open
	// of every fleet file.
	var touched int64
	for d, in := range s.docs {
		g, _, err := store.OpenMappedDoc(s.ingFS, gdagPath(s.dir, in.id))
		if err != nil {
			return err
		}
		ans, err := comp.answersFor(g)
		if err != nil {
			return err
		}
		for qi := range ans {
			if ans[qi] != s.ans[d][qi] {
				return fmt.Errorf("%s %s: mapped answer differs from the heap-built one", in.id, readMix[qi].name)
			}
		}
		fp, _ := g.ResidentFootprint()
		touched += fp
	}
	budget := touched / coldBudgetQ
	r.note("cold fleet: %d docs, touched %.1f MB, budget %.1f MB", coldFleet, float64(touched)/(1<<20), float64(budget)/(1<<20))
	rng := subRand(r.seed, 3)
	z := rand.NewZipf(rng, coldZipfS, 1, coldFleet-1)
	seq := readSequence(rng, coldMaxRounds*(coldWarm+coldReads), func() int { return int(z.Uint64()) })
	r.digest = digestOf("cold-query", seq)
	plan := roundPlan{
		Dir: s.dir, Budget: budget, Answers: s.ans, Seq: seq,
		Stride: coldWarm + coldReads, Warm: coldWarm, Reads: coldReads, Traced: coldReads,
	}
	return r.serveRounds(s, plan, coldMinRounds, coldMaxRounds)
}

// serveRounds runs a read workload's untraced rounds one after another,
// each in a fresh process, until the run's seconds are spent (at least
// minRounds, at most maxRounds), and reports them as one pass; with
// tracing it then runs round 0 again through the layered client.
func (r *runner) serveRounds(s *served, plan roundPlan, minRounds, maxRounds int) error {
	for _, in := range s.docs {
		plan.IDs = append(plan.IDs, in.id)
	}
	planPath := filepath.Join(r.dir, "round-plan.json")
	b, err := json.Marshal(plan)
	if err != nil {
		return err
	}
	if err := os.WriteFile(planPath, b, 0o644); err != nil {
		return err
	}

	var st pass
	var peaks, mapped, live []float64
	start := time.Now()
	for k := 0; k < maxRounds && (k < minRounds || time.Since(start) < r.seconds); k++ {
		rr, err := r.runRound(planPath, k, false)
		if err != nil {
			return err
		}
		st.ss = append(st.ss, rr.Samples...)
		st.wall += time.Duration(rr.WallNS)
		st.ops += rr.Ops
		st.failed += rr.Failed
		r.attempted += rr.WarmOps
		st.rt1.mallocs += rr.Mallocs
		st.rt1.allocBytes += rr.AllocBytes
		st.rt1.gcCPU += rr.GCCPU
		st.rt1.totalCPU += rr.TotalCPU
		st.cat1.Loads += rr.Loads
		st.cat1.Hits += rr.Hits
		st.cat1.Evictions += rr.Evictions
		peaks = append(peaks, rr.PeakMB)
		mapped = append(mapped, rr.MappedMB)
		live = append(live, rr.LiveMB)
	}
	st.peakMB = quantile(peaks, 0.5)
	r.attempted += st.ops
	r.failed += st.failed
	r.readMetrics(st, true)
	r.runtimeMetrics(st, st.ops)
	if r.trace {
		rr, err := r.runRound(planPath, 0, true)
		if err != nil {
			return err
		}
		r.attempted += rr.Ops + rr.WarmOps
		r.failed += rr.Failed
		for k, v := range rr.Layer {
			r.layer[k] = v
		}
		r.compareTraced(st.ss, rr.Samples)
		r.note("traced reads: %d, %d failed", rr.Ops, rr.Failed)
	}
	if err := r.finishServed(s); err != nil {
		return err
	}
	// The reads ran in the round processes: report what a round left
	// mapped and live after its reads and forced collections.
	r.layer["store.mapped_mb"] = quantile(mapped, 0.5)
	r.layer["runtime.live_heap_mb"] = quantile(live, 0.5)
	r.note("rounds after forced GC: store.mapped_mb=%.1f live_heap_mb=%.1f (median of %d rounds; budget %.1f MB)",
		quantile(mapped, 0.5), quantile(live, 0.5), len(mapped), float64(plan.Budget)/(1<<20))
	return nil
}

// runRound runs round k of a read workload in a fresh process of this
// program and waits for it to exit.
func (r *runner) runRound(planPath string, k int, traced bool) (*roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*r.seconds+60*time.Second)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", r.workload, "-seed", strconv.FormatInt(r.seed, 10),
		"-seconds", strconv.Itoa(int(r.seconds/time.Second)), "-trace", trace,
		"-tracedir", r.traceDir, "-round-plan", planPath, "-round", strconv.Itoa(k))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s round %d: %w", r.workload, k, err)
	}
	var rr roundResult
	if err := json.Unmarshal(out.Bytes(), &rr); err != nil {
		return nil, fmt.Errorf("%s round %d: %w", r.workload, k, err)
	}
	return &rr, nil
}

// round is the body of a round process: it serves the planned
// documents under the budget, warms the catalog with the round's first
// reads, runs the timed reads (through the handler, or traced through
// the layered client), and prints a roundResult.
func (r *runner) round(planPath string, k int) error {
	b, err := os.ReadFile(planPath)
	if err != nil {
		return err
	}
	var plan roundPlan
	if err := json.Unmarshal(b, &plan); err != nil {
		return err
	}
	comp, err := compileMix()
	if err != nil {
		return err
	}
	s := &served{dir: plan.Dir, ans: plan.Answers, catFS: newCountingFS(ioCheckpoint, r.trace, nil)}
	for _, id := range plan.IDs {
		s.docs = append(s.docs, &docInput{id: id})
		bodies := make([][]byte, len(readMix))
		for qi, q := range readMix {
			bodies[qi] = queryBody(id, q)
		}
		s.bodies = append(s.bodies, bodies)
	}
	if err := s.open(plan.Budget); err != nil {
		return err
	}
	if plan.Preload {
		if err := s.preload(); err != nil {
			return err
		}
	}
	base := k * plan.Stride
	warm := s.handlerReads(1, plan.Seq[base:base+plan.Warm], newLoop(tracedDeadline, plan.Warm))
	timed := plan.Seq[base+plan.Warm : base+plan.Stride]

	rr := roundResult{Failed: warm.failed, WarmOps: warm.ops}
	var st pass
	if r.trace {
		rec := newRecorder()
		s.catFS.rec = rec // the maps of cold loads; concurrent reads leave them without a parent
		var materialized int64
		st = measure(s.cat, func() pass {
			var ts pass
			ts, materialized = s.layeredReads(clients, timed, newLoop(tracedDeadline, plan.Traced), comp, rec)
			return ts
		})
		rr.Layer = make(map[string]float64)
		spanLayers(rr.Layer, rec, materialized, st.cat1.Loads-st.cat0.Loads)
		r.writeTrace(rec)
	} else {
		lp := newLoop(r.seconds, plan.Reads)
		if plan.Reads == 0 {
			lp = newLoop(plan.Slice, 0)
		}
		st = measure(s.cat, func() pass { return s.handlerReads(clients, timed, lp) })
	}
	rr.Samples = st.ss
	rr.Ops = st.ops
	rr.Failed += st.failed
	rr.WallNS = int64(st.wall)
	rr.PeakMB = st.peakMB
	rr.Loads = st.cat1.Loads - st.cat0.Loads
	rr.Hits = st.cat1.Hits - st.cat0.Hits
	rr.Evictions = st.cat1.Evictions - st.cat0.Evictions
	rr.Mallocs = st.rt1.mallocs - st.rt0.mallocs
	rr.AllocBytes = st.rt1.allocBytes - st.rt0.allocBytes
	rr.GCCPU = st.rt1.gcCPU - st.rt0.gcCPU
	rr.TotalCPU = st.rt1.totalCPU - st.rt0.totalCPU
	r.leakCheck()
	rr.MappedMB = r.layer["store.mapped_mb"]
	rr.LiveMB = r.layer["runtime.live_heap_mb"]
	out, err := json.Marshal(rr)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
