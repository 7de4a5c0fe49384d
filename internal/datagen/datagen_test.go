package datagen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hdsampler/internal/hiddendb"
)

func TestIIDBooleanShape(t *testing.T) {
	ds := IIDBoolean(5, 100, 0.5, 1)
	if ds.Schema.NumAttrs() != 5 {
		t.Fatalf("attrs = %d", ds.Schema.NumAttrs())
	}
	if len(ds.Tuples) != 100 {
		t.Fatalf("tuples = %d", len(ds.Tuples))
	}
	for _, a := range ds.Schema.Attrs {
		if a.Kind != hiddendb.KindBool {
			t.Fatalf("attr %q kind = %v", a.Name, a.Kind)
		}
	}
}

func TestIIDBooleanProbability(t *testing.T) {
	ds := IIDBoolean(4, 20000, 0.3, 2)
	ones := 0
	for _, tu := range ds.Tuples {
		for _, v := range tu.Vals {
			ones += v
		}
	}
	frac := float64(ones) / float64(4*20000)
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("fraction of ones = %g, want ~0.3", frac)
	}
}

func TestIIDBooleanDeterministic(t *testing.T) {
	a := IIDBoolean(6, 50, 0.5, 42)
	b := IIDBoolean(6, 50, 0.5, 42)
	for i := range a.Tuples {
		for j := range a.Tuples[i].Vals {
			if a.Tuples[i].Vals[j] != b.Tuples[i].Vals[j] {
				t.Fatal("same seed produced different data")
			}
		}
	}
	c := IIDBoolean(6, 50, 0.5, 43)
	same := true
	for i := range a.Tuples {
		for j := range a.Tuples[i].Vals {
			if a.Tuples[i].Vals[j] != c.Tuples[i].Vals[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestCorrelatedBooleanRuns(t *testing.T) {
	// With corr=0.95 adjacent attributes agree far more often than 50%.
	ds := CorrelatedBoolean(10, 5000, 0.95, 3)
	agree, total := 0, 0
	for _, tu := range ds.Tuples {
		for j := 1; j < len(tu.Vals); j++ {
			if tu.Vals[j] == tu.Vals[j-1] {
				agree++
			}
			total++
		}
	}
	frac := float64(agree) / float64(total)
	if frac < 0.9 {
		t.Fatalf("adjacent agreement = %g, want > 0.9", frac)
	}
	// corr=0 behaves like a fair coin.
	ds0 := CorrelatedBoolean(10, 5000, 0, 3)
	agree, total = 0, 0
	for _, tu := range ds0.Tuples {
		for j := 1; j < len(tu.Vals); j++ {
			if tu.Vals[j] == tu.Vals[j-1] {
				agree++
			}
			total++
		}
	}
	frac = float64(agree) / float64(total)
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("corr=0 agreement = %g, want ~0.5", frac)
	}
}

func TestCorrelatedBooleanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("corr out of range did not panic")
		}
	}()
	CorrelatedBoolean(3, 10, 1.5, 1)
}

func TestZipfCategoricalSkew(t *testing.T) {
	ds := ZipfCategorical([]int{8, 8}, 20000, 1.2, 4)
	counts := make([]int, 8)
	for _, tu := range ds.Tuples {
		counts[tu.Vals[0]]++
	}
	for v := 1; v < 8; v++ {
		if counts[v] > counts[0] {
			t.Fatalf("zipf skew violated: counts[%d]=%d > counts[0]=%d", v, counts[v], counts[0])
		}
	}
	if counts[0] < counts[7]*3 {
		t.Fatalf("head %d not >> tail %d for s=1.2", counts[0], counts[7])
	}
	// s=0 should be near-uniform.
	u := ZipfCategorical([]int{5}, 20000, 0, 4)
	counts = make([]int, 5)
	for _, tu := range u.Tuples {
		counts[tu.Vals[0]]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-4000) > 400 {
			t.Fatalf("s=0 counts[%d]=%d far from uniform 4000", v, c)
		}
	}
}

func TestWeightedDistribution(t *testing.T) {
	w := newWeighted([]float64{1, 2, 7})
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, 3)
	const trials = 50000
	for i := 0; i < trials; i++ {
		counts[w.draw(rng)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.015 {
			t.Errorf("weight %d frequency = %g, want ~%g", i, got, want)
		}
	}
}

func TestWeightedPanics(t *testing.T) {
	for name, w := range map[string][]float64{
		"negative": {1, -1},
		"zero":     {0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights did not panic", name)
				}
			}()
			newWeighted(w)
		}()
	}
}

func TestVehiclesSchemaShape(t *testing.T) {
	s := VehiclesSchema()
	if s.NumAttrs() != vehNumAttrs {
		t.Fatalf("attrs = %d, want %d", s.NumAttrs(), vehNumAttrs)
	}
	if s.Attrs[VehAttrMake].Name != "make" || s.Attrs[VehAttrDoors].Name != "doors" {
		t.Fatal("attribute order wrong")
	}
	if got := s.DomainSize(VehAttrModel); got != 48 {
		t.Fatalf("model domain = %d, want 48", got)
	}
	if s.SpaceSize() < 1e8 {
		t.Fatalf("space size %g too small to make brute force interesting", s.SpaceSize())
	}
	if s.Attrs[VehAttrPrice].Kind != hiddendb.KindNumeric {
		t.Fatal("price must be numeric")
	}
}

func TestVehiclesValidAgainstSchema(t *testing.T) {
	ds := Vehicles(2000, 7)
	if _, err := hiddendb.New(ds.Schema, ds.Tuples, nil, hiddendb.Config{K: 10}); err != nil {
		t.Fatalf("generated tuples rejected: %v", err)
	}
}

func TestVehiclesCorrelations(t *testing.T) {
	ds := Vehicles(20000, 8)
	s := ds.Schema
	priceAttr := s.Attrs[VehAttrPrice]
	mileAttr := s.Attrs[VehAttrMileage]
	for i, tu := range ds.Tuples {
		mk := tu.Vals[VehAttrMake]
		lo, hi := MakeModels(mk)
		if tu.Vals[VehAttrModel] < lo || tu.Vals[VehAttrModel] >= hi {
			t.Fatalf("tuple %d: model %d outside make %d range [%d,%d)", i, tu.Vals[VehAttrModel], mk, lo, hi)
		}
		price, ok := tu.Num(VehAttrPrice)
		if !ok {
			t.Fatalf("tuple %d missing price payload", i)
		}
		if got := priceAttr.BucketOf(price); got != tu.Vals[VehAttrPrice] {
			t.Fatalf("tuple %d price bucket mismatch: raw %g -> %d, stored %d", i, price, got, tu.Vals[VehAttrPrice])
		}
		miles, ok := tu.Num(VehAttrMileage)
		if !ok {
			t.Fatalf("tuple %d missing mileage payload", i)
		}
		if got := mileAttr.BucketOf(miles); got != tu.Vals[VehAttrMileage] {
			t.Fatalf("tuple %d mileage bucket mismatch", i)
		}
		if tu.Vals[VehAttrCondition] == 0 && miles > 500 {
			t.Fatalf("tuple %d: new car with %g miles", i, miles)
		}
	}
}

func TestVehiclesAggregateShape(t *testing.T) {
	ds := Vehicles(30000, 9)
	// Japanese share should roughly match the configured weights
	// (14+12+9+5+4)/100 = 44%.
	japanese := map[int]bool{}
	for _, idx := range JapaneseMakeIndexes() {
		japanese[idx] = true
	}
	nj := 0
	for _, tu := range ds.Tuples {
		if japanese[tu.Vals[VehAttrMake]] {
			nj++
		}
	}
	share := float64(nj) / float64(len(ds.Tuples))
	if share < 0.38 || share > 0.50 {
		t.Fatalf("japanese share = %g, want ~0.44", share)
	}
	// Older cars should be cheaper on average than the newest cars.
	var oldSum, newSum float64
	var oldN, newN int
	for _, tu := range ds.Tuples {
		p, _ := tu.Num(VehAttrPrice)
		if tu.Vals[VehAttrYear] <= 2 {
			oldSum += p
			oldN++
		}
		if tu.Vals[VehAttrYear] >= 10 {
			newSum += p
			newN++
		}
	}
	if oldN == 0 || newN == 0 {
		t.Fatal("year distribution degenerate")
	}
	if oldSum/float64(oldN) >= newSum/float64(newN) {
		t.Fatalf("old avg price %g >= new avg price %g", oldSum/float64(oldN), newSum/float64(newN))
	}
}

func TestJapaneseMakeIndexes(t *testing.T) {
	idx := JapaneseMakeIndexes()
	if len(idx) != 5 {
		t.Fatalf("japanese makes = %d, want 5", len(idx))
	}
	s := VehiclesSchema()
	names := map[string]bool{}
	for _, i := range idx {
		names[s.Attrs[VehAttrMake].Values[i]] = true
	}
	for _, want := range []string{"toyota", "honda", "nissan", "mazda", "subaru"} {
		if !names[want] {
			t.Errorf("missing japanese make %q", want)
		}
	}
}

func TestMakeModelsBounds(t *testing.T) {
	total := 0
	for mk := 0; mk < len(vehMakes); mk++ {
		lo, hi := MakeModels(mk)
		if lo != total {
			t.Fatalf("make %d offset = %d, want %d", mk, lo, total)
		}
		if hi <= lo {
			t.Fatalf("make %d empty model range", mk)
		}
		total = hi
	}
	if total != VehiclesSchema().DomainSize(VehAttrModel) {
		t.Fatalf("model ranges cover %d, domain is %d", total, VehiclesSchema().DomainSize(VehAttrModel))
	}
	if lo, hi := MakeModels(999); lo != -1 || hi != -1 {
		t.Fatal("out-of-range make should return -1,-1")
	}
}

// Property: every generator produces tuples valid against its schema.
func TestGeneratorsProduceValidTuplesProperty(t *testing.T) {
	f := func(seed int64) bool {
		for _, ds := range []*Dataset{
			IIDBoolean(4, 30, 0.5, seed),
			CorrelatedBoolean(5, 30, 0.8, seed),
			ZipfCategorical([]int{3, 4}, 30, 1, seed),
			Vehicles(30, seed),
		} {
			for _, tu := range ds.Tuples {
				if len(tu.Vals) != ds.Schema.NumAttrs() {
					return false
				}
				for a, v := range tu.Vals {
					if v < 0 || v >= ds.Schema.DomainSize(a) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestVehiclesDeterministic(t *testing.T) {
	a := Vehicles(200, 77)
	b := Vehicles(200, 77)
	for i := range a.Tuples {
		for j := range a.Tuples[i].Vals {
			if a.Tuples[i].Vals[j] != b.Tuples[i].Vals[j] {
				t.Fatal("same seed produced different vehicles")
			}
		}
	}
}
