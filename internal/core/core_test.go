package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// fig1DB is the demo paper's Figure 1 database: three boolean attributes,
// tuples t1=001, t2=010, t3=011, t4=110.
func fig1DB(t *testing.T, k int) *hiddendb.DB {
	t.Helper()
	s := hiddendb.MustSchema("fig1",
		hiddendb.BoolAttr("a1"), hiddendb.BoolAttr("a2"), hiddendb.BoolAttr("a3"))
	tuples := []hiddendb.Tuple{
		{Vals: []int{0, 0, 1}},
		{Vals: []int{0, 1, 0}},
		{Vals: []int{0, 1, 1}},
		{Vals: []int{1, 1, 0}},
	}
	db, err := hiddendb.New(s, tuples, nil, hiddendb.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// spyConn wraps a Conn and records every query issued.
type spyConn struct {
	formclient.Conn
	mu      sync.Mutex
	queries []hiddendb.Query
}

func (s *spyConn) Execute(ctx context.Context, q hiddendb.Query) (*hiddendb.Result, error) {
	s.mu.Lock()
	s.queries = append(s.queries, q)
	s.mu.Unlock()
	return s.Conn.Execute(ctx, q)
}

func TestWalkerFigure1Reaches(t *testing.T) {
	// Exact reach probabilities on the Figure 1 tree with k=1:
	// t1 = 1/4, t2 = 1/8, t3 = 1/8, t4 = 1/2 (worked in the paper's §2).
	db := fig1DB(t, 1)
	ctx := context.Background()
	w, err := NewWalker(ctx, formclient.NewLocal(db), WalkerConfig{Seed: 1, Order: OrderFixed})
	if err != nil {
		t.Fatal(err)
	}
	wantReach := map[int]float64{0: 0.25, 1: 0.125, 2: 0.125, 3: 0.5}
	counts := make(map[int]int)
	const draws = 4000
	for i := 0; i < draws; i++ {
		cand, err := w.Candidate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := wantReach[cand.Tuple.ID]; math.Abs(cand.Reach-got) > 1e-12 {
			t.Fatalf("tuple %d reported reach %g, want %g", cand.Tuple.ID, cand.Reach, got)
		}
		counts[cand.Tuple.ID]++
	}
	for id, want := range wantReach {
		got := float64(counts[id]) / draws
		if math.Abs(got-want) > 0.03 {
			t.Errorf("tuple %d empirical reach %g, want %g", id, got, want)
		}
	}
	// This database has no dead ends: every walk must yield a candidate.
	if w.GenStats().Restarts != 0 {
		t.Errorf("restarts = %d, want 0", w.GenStats().Restarts)
	}
}

func TestWalkerWithRejectionUniform(t *testing.T) {
	// C = 1/8 (the minimum reach) equalizes all four tuples at 1/8.
	db := fig1DB(t, 1)
	ctx := context.Background()
	w, err := NewWalker(ctx, formclient.NewLocal(db), WalkerConfig{Seed: 2, Order: OrderFixed})
	if err != nil {
		t.Fatal(err)
	}
	rej := NewRejector(0.125, 3)
	samples, stats, err := Collect(ctx, w, rej, 2000)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, s := range samples {
		counts[s.ID]++
	}
	for id := 0; id < 4; id++ {
		got := float64(counts[id]) / 2000
		if math.Abs(got-0.25) > 0.035 {
			t.Errorf("tuple %d frequency %g, want 0.25", id, got)
		}
	}
	// Acceptance rate should be near 1/2 (computed analytically).
	rate := float64(stats.Accepted) / float64(stats.Candidates)
	if math.Abs(rate-0.5) > 0.05 {
		t.Errorf("acceptance rate %g, want ~0.5", rate)
	}
	// Expected queries per accepted sample = 1.75 / 0.5 = 3.5.
	qps := float64(stats.Queries) / float64(stats.Accepted)
	if math.Abs(qps-3.5) > 0.35 {
		t.Errorf("queries/sample = %g, want ~3.5", qps)
	}
}

func TestWalkerShuffleOrderStillCoversAll(t *testing.T) {
	db := fig1DB(t, 1)
	ctx := context.Background()
	w, err := NewWalker(ctx, formclient.NewLocal(db), WalkerConfig{Seed: 4, Order: OrderShuffle})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 400; i++ {
		cand, err := w.Candidate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seen[cand.Tuple.ID] = true
		if cand.Reach <= 0 || cand.Reach > 1 {
			t.Fatalf("reach %g out of (0,1]", cand.Reach)
		}
	}
	if len(seen) != 4 {
		t.Errorf("only %d distinct tuples reached", len(seen))
	}
}

func TestWalkerDeadEndRestarts(t *testing.T) {
	// Both tuples share a1=0, so the a1=1 branch is empty and half of all
	// fixed-order walks dead-end.
	s := hiddendb.MustSchema("sparse",
		hiddendb.BoolAttr("a"), hiddendb.BoolAttr("b"), hiddendb.BoolAttr("c"),
		hiddendb.BoolAttr("d"), hiddendb.BoolAttr("e"), hiddendb.BoolAttr("f"))
	tuples := []hiddendb.Tuple{
		{Vals: []int{0, 0, 0, 0, 0, 0}},
		{Vals: []int{0, 1, 1, 1, 1, 1}},
	}
	db, err := hiddendb.New(s, tuples, nil, hiddendb.Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := NewWalker(ctx, formclient.NewLocal(db), WalkerConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := w.Candidate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if w.GenStats().Restarts == 0 {
		t.Error("expected restarts on a sparse database")
	}
}

func TestWalkerMaxRestarts(t *testing.T) {
	// k=1 with a database whose every walk dead-ends is impossible, so
	// instead bound restarts at 1 on a sparse database and expect
	// ErrNoCandidate sometimes; drive until observed.
	s := hiddendb.MustSchema("sparse",
		hiddendb.BoolAttr("a"), hiddendb.BoolAttr("b"), hiddendb.BoolAttr("c"),
		hiddendb.BoolAttr("d"), hiddendb.BoolAttr("e"), hiddendb.BoolAttr("f"),
		hiddendb.BoolAttr("g"), hiddendb.BoolAttr("h"))
	tuples := []hiddendb.Tuple{{Vals: []int{0, 0, 0, 0, 0, 0, 0, 0}}}
	db, err := hiddendb.New(s, tuples, nil, hiddendb.Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := NewWalker(ctx, formclient.NewLocal(db), WalkerConfig{Seed: 6, MaxRestarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for i := 0; i < 50 && !sawErr; i++ {
		if _, err := w.Candidate(ctx); errors.Is(err, ErrNoCandidate) {
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("MaxRestarts=1 never produced ErrNoCandidate on a 1/256 database")
	}
}

func TestWalkerAttributeScoping(t *testing.T) {
	ds := datagen.Vehicles(500, 31)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	spy := &spyConn{Conn: formclient.NewLocal(db)}
	ctx := context.Background()
	scope := []int{datagen.VehAttrMake, datagen.VehAttrCondition, datagen.VehAttrColor}
	w, err := NewWalker(ctx, spy, WalkerConfig{Seed: 7, Attrs: scope, Order: OrderShuffle})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := w.Candidate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	allowed := map[int]bool{}
	for _, a := range scope {
		allowed[a] = true
	}
	for _, q := range spy.queries {
		for _, p := range q.Preds() {
			if !allowed[p.Attr] {
				t.Fatalf("query %v constrains out-of-scope attribute %d", q, p.Attr)
			}
		}
	}
}

func TestResolveAttrsErrors(t *testing.T) {
	s := hiddendb.MustSchema("s", hiddendb.BoolAttr("a"), hiddendb.BoolAttr("b"))
	if _, err := resolveAttrs(s, []int{0, 0}); err == nil {
		t.Error("duplicate attr accepted")
	}
	if _, err := resolveAttrs(s, []int{5}); err == nil {
		t.Error("out-of-range attr accepted")
	}
	got, err := resolveAttrs(s, nil)
	if err != nil || len(got) != 2 {
		t.Errorf("default scope = %v, %v", got, err)
	}
}

func TestBruteForceUniformAndCost(t *testing.T) {
	// 16-cell space, 6 distinct tuples: expected tries/sample = 16/6.
	s := hiddendb.MustSchema("s",
		hiddendb.BoolAttr("a"), hiddendb.BoolAttr("b"),
		hiddendb.BoolAttr("c"), hiddendb.BoolAttr("d"))
	tuples := []hiddendb.Tuple{
		{Vals: []int{0, 0, 0, 0}}, {Vals: []int{0, 1, 0, 1}}, {Vals: []int{1, 0, 1, 0}},
		{Vals: []int{1, 1, 1, 1}}, {Vals: []int{0, 0, 1, 1}}, {Vals: []int{1, 1, 0, 0}},
	}
	db, err := hiddendb.New(s, tuples, nil, hiddendb.Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := NewBruteForce(ctx, formclient.NewLocal(db), BruteForceConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	const draws = 3000
	for i := 0; i < draws; i++ {
		cand, err := b.Candidate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cand.Reach-1.0/16) > 1e-12 {
			t.Fatalf("brute-force reach = %g, want 1/16", cand.Reach)
		}
		counts[cand.Tuple.ID]++
	}
	for id := 0; id < 6; id++ {
		got := float64(counts[id]) / draws
		if math.Abs(got-1.0/6) > 0.03 {
			t.Errorf("tuple %d frequency %g, want %g", id, got, 1.0/6)
		}
	}
	qps := float64(b.GenStats().Queries) / draws
	if math.Abs(qps-16.0/6) > 0.25 {
		t.Errorf("queries/sample = %g, want ~%g", qps, 16.0/6)
	}
}

func TestBruteForceMaxTries(t *testing.T) {
	ds := datagen.IIDBoolean(10, 2, 0.5, 9) // 2 tuples in 1024 cells
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := NewBruteForce(ctx, formclient.NewLocal(db), BruteForceConfig{Seed: 10, MaxTries: 3})
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for i := 0; i < 20 && !sawErr; i++ {
		if _, err := b.Candidate(ctx); errors.Is(err, ErrNoCandidate) {
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("MaxTries=3 on a 2/1024 database never exhausted")
	}
}

func TestCountWalkerExactCountsUniform(t *testing.T) {
	// k must exceed the largest full-depth cell (71 here): tuples hidden
	// beyond the top-k of a fully-specified query are unreachable by ANY
	// interface-based sampler, so uniformity is only defined above it.
	ds := datagen.ZipfCategorical([]int{4, 3, 3}, 600, 1.0, 11)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil,
		hiddendb.Config{K: 100, CountMode: hiddendb.CountExact})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cw, err := NewCountWalker(ctx, formclient.NewLocal(db), CountWalkerConfig{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(db.Size())
	counts := make(map[int]int)
	const draws = 3000
	for i := 0; i < draws; i++ {
		cand, err := cw.Candidate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Exact counts make every candidate's reach exactly 1/N.
		if math.Abs(cand.Reach-1/n)/(1/n) > 1e-9 {
			t.Fatalf("reach = %g, want exactly 1/N = %g", cand.Reach, 1/n)
		}
		counts[cand.Tuple.ID]++
	}
	if cw.GenStats().Restarts != 0 {
		t.Errorf("restarts = %d, want 0 with exact counts", cw.GenStats().Restarts)
	}
	// Chi-square against uniform over 600 tuples with 3000 draws:
	// E=5 per cell; statistic should be near 599.
	chi := 0.0
	e := draws / n
	for id := 0; id < db.Size(); id++ {
		d := float64(counts[id]) - e
		chi += d * d / e
	}
	// df=599, sd=sqrt(2*599)=34.6; accept within 5 sigma.
	if chi > 599+5*34.6 {
		t.Errorf("chi-square = %g too large for uniformity (df=599)", chi)
	}
}

func TestCountWalkerUseParentCountSavesQueries(t *testing.T) {
	ds := datagen.ZipfCategorical([]int{5, 4, 4}, 800, 0.8, 13)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil,
		hiddendb.Config{K: 100, CountMode: hiddendb.CountExact})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plain, err := NewCountWalker(ctx, formclient.NewLocal(db), CountWalkerConfig{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	saver, err := NewCountWalker(ctx, formclient.NewLocal(db), CountWalkerConfig{Seed: 14, UseParentCount: true})
	if err != nil {
		t.Fatal(err)
	}
	const draws = 300
	for i := 0; i < draws; i++ {
		if _, err := plain.Candidate(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := saver.Candidate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if saver.GenStats().Queries >= plain.GenStats().Queries {
		t.Errorf("UseParentCount did not save queries: %d >= %d",
			saver.GenStats().Queries, plain.GenStats().Queries)
	}
	// Correctness preserved: all candidates still uniform reach 1/N.
	cand, err := saver.Candidate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cand.Reach-1/float64(db.Size()))/(1/float64(db.Size())) > 1e-9 {
		t.Errorf("reach with UseParentCount = %g, want 1/N", cand.Reach)
	}
}

func TestCountWalkerNoCounts(t *testing.T) {
	ds := datagen.IIDBoolean(4, 50, 0.5, 15)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 5, CountMode: hiddendb.CountNone})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cw, err := NewCountWalker(ctx, formclient.NewLocal(db), CountWalkerConfig{Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Candidate(ctx); !errors.Is(err, ErrNoCounts) {
		t.Fatalf("want ErrNoCounts, got %v", err)
	}
}

func TestCountWalkerApproxCountsWithCorrection(t *testing.T) {
	// With noisy counts the raw walk is skewed, but the reported proposal
	// reach plus rejection keeps the sample near-uniform.
	s := hiddendb.MustSchema("s", hiddendb.CatAttr("a", "0", "1", "2", "3"), hiddendb.BoolAttr("b"))
	var tuples []hiddendb.Tuple
	// Deliberately unbalanced: 40/20/10/10 split on attribute a.
	for i := 0; i < 80; i++ {
		v := 0
		switch {
		case i >= 40 && i < 60:
			v = 1
		case i >= 60 && i < 70:
			v = 2
		case i >= 70:
			v = 3
		}
		tuples = append(tuples, hiddendb.Tuple{Vals: []int{v, i % 2}})
	}
	// k = 25 exceeds the largest cell (20), so every tuple is visible.
	db, err := hiddendb.New(s, tuples, nil,
		hiddendb.Config{K: 25, CountMode: hiddendb.CountApprox, CountNoise: 0.4, NoiseSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cw, err := NewCountWalker(ctx, formclient.NewLocal(db), CountWalkerConfig{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	rej := NewRejector(1.0/(80*4), 18) // well below min reach: strong correction
	samples, _, err := Collect(ctx, cw, rej, 1500)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, tu := range samples {
		counts[tu.Vals[0]]++
	}
	want := []float64{0.5, 0.25, 0.125, 0.125}
	for v := range counts {
		got := float64(counts[v]) / float64(len(samples))
		if math.Abs(got-want[v]) > 0.05 {
			t.Errorf("value %d frequency %g, want %g", v, got, want[v])
		}
	}
}

func TestRejectorBehaviour(t *testing.T) {
	r := NewRejector(0.25, 19)
	if p := r.AcceptProb(0.5); p != 0.5 {
		t.Errorf("AcceptProb(0.5) = %g, want 0.5", p)
	}
	if p := r.AcceptProb(0.1); p != 1 {
		t.Errorf("AcceptProb(0.1) = %g, want 1 (reach below C)", p)
	}
	if p := r.AcceptProb(0); p != 0 {
		t.Errorf("AcceptProb(0) = %g, want 0", p)
	}
	var nilRej *Rejector
	if !nilRej.Accept(&Candidate{Reach: 0.9}) {
		t.Error("nil rejector must accept everything")
	}
	all := NewRejector(0, 20) // C<=0 accepts everything
	if !all.Accept(&Candidate{Reach: 1e-9}) {
		t.Error("C=0 should accept everything")
	}
	acc, rejd := all.Counts()
	if acc != 1 || rejd != 0 {
		t.Errorf("counts = %d,%d", acc, rejd)
	}
	// Empirical acceptance frequency matches AcceptProb.
	r2 := NewRejector(0.2, 21)
	hits := 0
	for i := 0; i < 10000; i++ {
		if r2.Accept(&Candidate{Reach: 0.4}) {
			hits++
		}
	}
	if math.Abs(float64(hits)/10000-0.5) > 0.02 {
		t.Errorf("empirical acceptance %g, want 0.5", float64(hits)/10000)
	}
}

func TestSliderC(t *testing.T) {
	s := hiddendb.MustSchema("s", hiddendb.BoolAttr("a"), hiddendb.BoolAttr("b"), hiddendb.BoolAttr("c"))
	k := 4
	cmin := SliderC(s, nil, k, 0)
	if math.Abs(cmin-1.0/(8*4)) > 1e-12 {
		t.Errorf("SliderC(0) = %g, want 1/32", cmin)
	}
	if got := SliderC(s, nil, k, 1); got != 1 {
		t.Errorf("SliderC(1) = %g, want 1", got)
	}
	prev := 0.0
	for _, pos := range []float64{0, 0.25, 0.5, 0.75, 1} {
		c := SliderC(s, nil, k, pos)
		if c <= prev {
			t.Errorf("SliderC not increasing at %g: %g <= %g", pos, c, prev)
		}
		prev = c
	}
	// Clamping.
	if SliderC(s, nil, k, -1) != cmin || SliderC(s, nil, k, 2) != 1 {
		t.Error("slider clamping broken")
	}
	// Scoped space is smaller.
	if SliderC(s, []int{0}, k, 0) <= cmin {
		t.Error("scoped Cmin should exceed full-space Cmin")
	}
}

func TestPipelineTargetAndProgress(t *testing.T) {
	db := fig1DB(t, 1)
	ctx := context.Background()
	w, err := NewWalker(ctx, formclient.NewLocal(db), WalkerConfig{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	var tally Tally
	var got []*Candidate
	if err := Draw(ctx, w, NewRejector(0.125, 23), 50, &tally, func(c *Candidate) { got = append(got, c) }); err != nil {
		t.Fatalf("draw error: %v", err)
	}
	if len(got) != 50 {
		t.Fatalf("samples = %d, want 50", len(got))
	}
	c := tally.Counts()
	if c.Accepted != 50 || c.Candidates != c.Accepted+c.Rejected || c.Rejected == 0 {
		t.Fatalf("counts = %+v", c)
	}
	// The loop draws no candidate it does not process, so the tally bills
	// exactly the generator's queries.
	if gs := w.GenStats(); c.Queries != gs.Queries || c.Candidates != gs.Candidates {
		t.Fatalf("counts %+v, generator %+v", c, gs)
	}
	for _, s := range got {
		if s.Reach <= 0 || s.Tuple.Vals == nil {
			t.Fatal("malformed sample")
		}
	}
}

func TestPipelineKillSwitch(t *testing.T) {
	db := fig1DB(t, 1)
	w, err := NewWalker(context.Background(), formclient.NewLocal(db), WalkerConfig{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	// Read a few samples, then hit the kill switch from the output stage.
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	var tally Tally
	got := 0
	err = Draw(ctx, w, nil, 1000, &tally, func(*Candidate) {
		if got++; got == 5 {
			kill()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got != 5 || tally.Counts().Accepted != 5 {
		t.Fatalf("kill switch let %d samples through (tally %+v), want 5", got, tally.Counts())
	}
}

func TestPipelineSurfacesGeneratorError(t *testing.T) {
	ds := datagen.IIDBoolean(4, 50, 0.5, 25)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil,
		hiddendb.Config{K: 5, CountMode: hiddendb.CountNone})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cw, err := NewCountWalker(ctx, formclient.NewLocal(db), CountWalkerConfig{Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	err = Draw(ctx, cw, nil, 5, &Tally{}, func(*Candidate) { t.Error("sample emitted") })
	if !errors.Is(err, ErrNoCounts) {
		t.Fatalf("want ErrNoCounts, got %v", err)
	}
}

func TestCollectContextCancel(t *testing.T) {
	db := fig1DB(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	w, err := NewWalker(ctx, formclient.NewLocal(db), WalkerConfig{Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, _, err := Collect(ctx, w, nil, 10); err == nil {
		t.Fatal("cancelled Collect should fail")
	}
}

func TestOrderString(t *testing.T) {
	if OrderFixed.String() != "fixed" || OrderShuffle.String() != "shuffle" {
		t.Error("order names wrong")
	}
}
