package datagen

import (
	"math"
	"math/rand"

	"hdsampler/internal/hiddendb"
)

// Attribute positions in the Vehicles schema, exported so experiments and
// examples can form predicates without string lookups.
const (
	VehAttrMake = iota
	VehAttrModel
	VehAttrYear
	VehAttrPrice
	VehAttrMileage
	VehAttrColor
	VehAttrCondition
	VehAttrTransmission
	VehAttrFuel
	VehAttrDoors
	vehNumAttrs
)

// vehMake describes one manufacturer: its market share weight, price tier
// multiplier, and models (each model index is global across makes, so a
// conjunctive query with mismatched make/model is empty — the realistic
// sparsity of a vehicles search form).
type vehMake struct {
	name     string
	weight   float64
	tier     float64 // base price multiplier
	japanese bool
	models   []string
}

var vehMakes = []vehMake{
	{"toyota", 14, 1.0, true, []string{"camry", "corolla", "prius", "rav4"}},
	{"honda", 12, 1.0, true, []string{"civic", "accord", "cr-v", "fit"}},
	{"nissan", 9, 0.95, true, []string{"altima", "sentra", "maxima", "rogue"}},
	{"mazda", 5, 0.9, true, []string{"mazda3", "mazda6", "cx-5", "mx-5"}},
	{"subaru", 4, 0.95, true, []string{"outback", "forester", "impreza", "legacy"}},
	{"ford", 13, 0.9, false, []string{"f-150", "focus", "fusion", "escape"}},
	{"chevrolet", 12, 0.9, false, []string{"silverado", "malibu", "impala", "equinox"}},
	{"dodge", 7, 0.85, false, []string{"ram", "charger", "durango", "caravan"}},
	{"bmw", 5, 1.9, false, []string{"3-series", "5-series", "x3", "x5"}},
	{"mercedes", 4, 2.0, false, []string{"c-class", "e-class", "glk", "slk"}},
	{"volkswagen", 8, 1.1, false, []string{"golf", "jetta", "passat", "tiguan"}},
	{"hyundai", 7, 0.8, false, []string{"elantra", "sonata", "tucson", "santa-fe"}},
}

var vehColors = []string{"black", "white", "silver", "gray", "red", "blue", "green", "beige", "brown", "orange"}
var vehColorWeights = []float64{20, 19, 16, 13, 10, 9, 4, 4, 3, 2}

const (
	vehYearLo = 1998
	vehYearHi = 2009 // the demo year; inclusive
)

// VehiclesSchema returns the schema of the simulated Google Base Vehicles
// database: 10 searchable attributes whose cross-product space has roughly
// 2.4e8 cells, so fully-specified brute-force probing is hopeless while the
// random drill-down succeeds in tens of queries — the regime the paper
// targets.
func VehiclesSchema() *hiddendb.Schema {
	makeNames := make([]string, len(vehMakes))
	var modelNames []string
	for i, m := range vehMakes {
		makeNames[i] = m.name
		modelNames = append(modelNames, m.models...)
	}
	years := make([]string, 0, vehYearHi-vehYearLo+1)
	for y := vehYearLo; y <= vehYearHi; y++ {
		years = append(years, itoa(y))
	}
	return hiddendb.MustSchema("vehicles",
		hiddendb.CatAttr("make", makeNames...),
		hiddendb.CatAttr("model", modelNames...),
		hiddendb.CatAttr("year", years...),
		hiddendb.NumAttr("price", 0, 5000, 10000, 15000, 20000, 30000, 45000, 70000, 120000),
		hiddendb.NumAttr("mileage", 0, 10000, 30000, 60000, 100000, 150000, 300000),
		hiddendb.CatAttr("color", vehColors...),
		hiddendb.CatAttr("condition", "new", "used", "certified"),
		hiddendb.CatAttr("transmission", "automatic", "manual"),
		hiddendb.CatAttr("fuel", "gas", "diesel", "hybrid", "electric"),
		hiddendb.CatAttr("doors", "2", "4", "5"),
	)
}

func itoa(v int) string {
	// small positive ints only
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Vehicles generates a seeded n-tuple inventory with realistic
// correlations: model depends on make; newer cars cost more and have lower
// mileage; "new" condition implies a recent year and near-zero mileage;
// hybrids concentrate in a few models; luxury makes sit in higher price
// bands. Raw price and mileage are carried as numeric payloads for SUM/AVG
// experiments.
func Vehicles(n int, seed int64) *Dataset {
	schema := VehiclesSchema()
	rng := rand.New(rand.NewSource(seed))

	makeWeights := make([]float64, len(vehMakes))
	for i, m := range vehMakes {
		makeWeights[i] = m.weight
	}
	makeDraw := newWeighted(makeWeights)
	colorDraw := newWeighted(vehColorWeights)

	// Year skews recent: weight grows linearly toward the demo year.
	nYears := vehYearHi - vehYearLo + 1
	yearWeights := make([]float64, nYears)
	for i := range yearWeights {
		yearWeights[i] = float64(i + 2)
	}
	yearDraw := newWeighted(yearWeights)

	// Model offset of each make within the global model domain.
	modelOffset := make([]int, len(vehMakes))
	off := 0
	for i, m := range vehMakes {
		modelOffset[i] = off
		off += len(m.models)
	}

	priceAttr := schema.Attrs[VehAttrPrice]
	mileAttr := schema.Attrs[VehAttrMileage]

	tuples := make([]hiddendb.Tuple, n)
	for i := range tuples {
		mk := makeDraw.draw(rng)
		model := modelOffset[mk] + rng.Intn(len(vehMakes[mk].models))
		year := yearDraw.draw(rng)
		age := nYears - 1 - year // 0 for the newest year

		// Condition: recent cars may be new; certified sits in between.
		var condition int
		switch {
		case age == 0 && rng.Float64() < 0.55, age == 1 && rng.Float64() < 0.2:
			condition = 0 // new
		case age <= 4 && rng.Float64() < 0.25:
			condition = 2 // certified
		default:
			condition = 1 // used
		}

		// Mileage: grows with age; new cars are delivery-miles only.
		var miles float64
		if condition == 0 {
			miles = rng.Float64() * 200
		} else {
			perYear := 8000 + rng.Float64()*8000
			miles = (float64(age) + 0.3) * perYear * (0.7 + 0.6*rng.Float64())
			if miles > 299999 {
				miles = 299999
			}
		}

		// Price: tier base, depreciates ~11%/year, mileage discount, noise.
		base := 26000 * vehMakes[mk].tier
		price := base * math.Pow(0.89, float64(age)) * (1 - miles/1.6e6)
		price *= 0.85 + 0.3*rng.Float64()
		if condition == 2 {
			price *= 1.05
		}
		if price < 500 {
			price = 500
		}
		if price > 119999 {
			price = 119999
		}
		// Round the payloads before bucketing so the stored bucket always
		// matches the visible raw value.
		price = math.Round(price)
		miles = math.Round(miles)

		// Fuel: hybrids cluster in prius/civic/camry; electric very rare.
		fuel := 0
		switch vehMakes[mk].models[model-modelOffset[mk]] {
		case "prius":
			fuel = 2
		case "civic", "camry", "fusion":
			if rng.Float64() < 0.15 {
				fuel = 2
			}
		default:
			r := rng.Float64()
			if r < 0.04 {
				fuel = 1 // diesel
			} else if r < 0.045 {
				fuel = 3 // electric
			}
		}

		transmission := 0
		if rng.Float64() < 0.12 {
			transmission = 1
		}
		doors := 1 // "4"
		switch r := rng.Float64(); {
		case r < 0.15:
			doors = 0 // "2"
		case r < 0.35:
			doors = 2 // "5" (hatch/SUV)
		}

		vals := make([]int, vehNumAttrs)
		vals[VehAttrMake] = mk
		vals[VehAttrModel] = model
		vals[VehAttrYear] = year
		vals[VehAttrPrice] = priceAttr.BucketOf(price)
		vals[VehAttrMileage] = mileAttr.BucketOf(miles)
		vals[VehAttrColor] = colorDraw.draw(rng)
		vals[VehAttrCondition] = condition
		vals[VehAttrTransmission] = transmission
		vals[VehAttrFuel] = fuel
		vals[VehAttrDoors] = doors

		nums := make([]float64, vehNumAttrs)
		for j := range nums {
			nums[j] = math.NaN()
		}
		nums[VehAttrPrice] = price
		nums[VehAttrMileage] = miles

		tuples[i] = hiddendb.Tuple{Vals: vals, Nums: nums}
	}
	return &Dataset{Schema: schema, Tuples: tuples}
}

// JapaneseMakeIndexes returns the make-domain indices of Japanese
// manufacturers — the paper's introductory use case asks for "the
// percentage of Japanese cars in the dealer's inventory".
func JapaneseMakeIndexes() []int {
	var out []int
	for i, m := range vehMakes {
		if m.japanese {
			out = append(out, i)
		}
	}
	return out
}

// MakeModels returns the global model-domain index range [lo, hi) belonging
// to make mk; queries pairing make mk with a model outside this range are
// empty by construction.
func MakeModels(mk int) (lo, hi int) {
	off := 0
	for i, m := range vehMakes {
		if i == mk {
			return off, off + len(m.models)
		}
		off += len(m.models)
	}
	return -1, -1
}
