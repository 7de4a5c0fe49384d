// Command hdsampler samples a hidden database behind a web form interface
// and prints marginal histograms and aggregate estimates — the demo system
// as a CLI. With -ui it serves the interactive front end instead.
//
// Usage:
//
//	hdsampler -url http://localhost:8080 -n 300 -slider 0.85
//	hdsampler -url http://localhost:8080 -ui -addr :8090
//	hdsampler -local vehicles -n 200 -method count
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"

	"hdsampler"
	"hdsampler/internal/datagen"
	"hdsampler/internal/estimate"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
	"hdsampler/internal/store"
	"hdsampler/internal/webui"
)

func main() {
	var (
		urlFlag = flag.String("url", "", "base URL of the target web form interface")
		local   = flag.String("local", "", "sample an in-process dataset instead of a URL (vehicles | jobs | bool-iid | bool-corr)")
		localN  = flag.Int("local-n", 20000, "tuples of the in-process dataset")
		k       = flag.Int("k", 1000, "target interface's top-k (for the slider mapping and -local)")
		countsF = flag.String("counts", "exact", "count mode of the -local interface")

		n       = flag.Int("n", 200, "samples to draw")
		method  = flag.String("method", "walk", "sampler: walk | count | brute")
		slider  = flag.Float64("slider", 0.85, "efficiency<->skew slider in [0,1] (1 = fastest)")
		cFlag   = flag.Float64("c", 0, "explicit rejection target C (overrides -slider)")
		seed    = flag.Int64("seed", 1, "random seed")
		attrsF  = flag.String("attrs", "", "comma-separated attribute names to scope sampling to")
		shuffle = flag.Bool("shuffle", true, "reshuffle attribute order per walk")
		hist    = flag.Bool("history", true, "reuse query history (memoize + infer)")
		trust   = flag.Bool("trust-counts", false, "enable count-based history inference")

		ui   = flag.Bool("ui", false, "serve the interactive web UI instead of sampling")
		addr = flag.String("addr", ":8090", "web UI listen address")

		aggWhere = flag.String("agg-where", "", "aggregate predicate, e.g. make=toyota")
		aggAttr  = flag.String("agg-attr", "", "numeric attribute for SUM/AVG aggregates")

		outFile = flag.String("out", "", "save the (merged) sample set to this JSON file")
		inFile  = flag.String("in", "", "load a previous sample set and merge the new draw into it")
	)
	flag.Parse()

	conn, err := buildConn(*urlFlag, *local, *localN, *k, *countsF, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *ui {
		log.Printf("hdsampler: web UI on %s", *addr)
		log.Fatal(http.ListenAndServe(*addr, webui.NewServer(conn, *k)))
	}

	ctx := context.Background()
	schema, err := conn.Schema(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	attrs, err := parseAttrs(schema, *attrsF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := hdsampler.Config{
		Seed: *seed, Slider: *slider, C: *cFlag, K: *k, Attrs: attrs,
		ShuffleOrder: *shuffle, UseHistory: *hist, TrustCounts: *trust,
		// The flag always carries an explicit value (its default is 0.85),
		// so -slider 0 means the documented lowest-skew walk, not the
		// zero-value "fastest" fallback.
		SliderSet: true,
	}
	switch strings.ToLower(*method) {
	case "walk":
		cfg.Method = hdsampler.MethodRandomWalk
	case "count":
		cfg.Method = hdsampler.MethodCountWeighted
		cfg.UseParentCount = *trust
	case "brute":
		cfg.Method = hdsampler.MethodBruteForce
	default:
		fmt.Fprintf(os.Stderr, "unknown method %q\n", *method)
		os.Exit(2)
	}

	s, err := hdsampler.New(ctx, conn, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("sampling %q: method=%s, C=%.3g, %d samples...\n", schema.Name, cfg.Method, s.C(), *n)
	tuples, stats, err := s.Draw(ctx, *n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sampling failed after %d samples: %v\n", len(tuples), err)
		if len(tuples) == 0 {
			os.Exit(1)
		}
	}
	fmt.Printf("done: %d samples, %d candidates, %d queries sent, %d saved by history, %.1fs\n\n",
		stats.Accepted, stats.Candidates, stats.Queries, stats.QueriesSaved, stats.Elapsed.Seconds())

	tuples, err = persistSamples(schema, tuples, stats, *method, s.C(), *urlFlag+*local, *inFile, *outFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	printHistograms(schema, tuples, attrs)
	if *aggWhere != "" {
		if err := printAggregates(schema, tuples, *aggWhere, *aggAttr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
}

// persistSamples merges the new draw with a previously saved set (when
// -in is given), saves the result (when -out is given), and returns the
// combined samples for analysis.
func persistSamples(schema *hdsampler.Schema, tuples []hdsampler.Tuple, stats hdsampler.Stats,
	method string, c float64, source, inFile, outFile string) ([]hdsampler.Tuple, error) {
	if inFile == "" && outFile == "" {
		return tuples, nil
	}
	set, err := store.New(source, method, c, schema, tuples, nil, stats.Queries)
	if err != nil {
		return nil, err
	}
	if inFile != "" {
		prev, err := store.LoadFile(inFile)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", inFile, err)
		}
		if err := prev.Merge(set); err != nil {
			return nil, err
		}
		set = prev
		combined, _, err := set.DecodeSamples()
		if err != nil {
			return nil, err
		}
		tuples = combined
		fmt.Printf("merged with %s: %d samples total\n\n", inFile, len(tuples))
	}
	if outFile != "" {
		if err := store.SaveFile(outFile, set); err != nil {
			return nil, fmt.Errorf("saving %s: %w", outFile, err)
		}
		fmt.Printf("saved %d samples to %s\n\n", len(set.Samples), outFile)
	}
	return tuples, nil
}

func buildConn(url, local string, localN, k int, counts string, seed int64) (hdsampler.Conn, error) {
	if url != "" {
		return hdsampler.Dial(url), nil
	}
	if local == "" {
		return nil, fmt.Errorf("need -url or -local")
	}
	var ds *datagen.Dataset
	switch strings.ToLower(local) {
	case "vehicles":
		ds = datagen.Vehicles(localN, seed)
	case "jobs":
		ds = datagen.Jobs(localN, seed)
	case "bool-iid":
		ds = datagen.IIDBoolean(12, localN, 0.5, seed)
	case "bool-corr":
		ds = datagen.CorrelatedBoolean(12, localN, 0.8, seed)
	default:
		return nil, fmt.Errorf("unknown -local dataset %q", local)
	}
	var mode hiddendb.CountMode
	switch strings.ToLower(counts) {
	case "none":
		mode = hiddendb.CountNone
	case "exact":
		mode = hiddendb.CountExact
	case "approx":
		mode = hiddendb.CountApprox
	default:
		return nil, fmt.Errorf("unknown count mode %q", counts)
	}
	db, err := hiddendb.New(ds.Schema, ds.Tuples, nil,
		hiddendb.Config{K: k, CountMode: mode, CountNoise: 0.3})
	if err != nil {
		return nil, err
	}
	return formclient.NewLocal(db), nil
}

func parseAttrs(schema *hdsampler.Schema, list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var out []int
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		idx := schema.AttrIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("unknown attribute %q (schema has %v)", name, attrNames(schema))
		}
		out = append(out, idx)
	}
	return out, nil
}

func attrNames(schema *hdsampler.Schema) []string {
	var out []string
	for i := range schema.Attrs {
		out = append(out, schema.Attrs[i].Name)
	}
	return out
}

func printHistograms(schema *hdsampler.Schema, tuples []hdsampler.Tuple, attrs []int) {
	if len(attrs) == 0 {
		for i := 0; i < schema.NumAttrs(); i++ {
			attrs = append(attrs, i)
		}
	}
	ms := estimate.Marginals(schema, tuples)
	for _, a := range attrs {
		m := ms[a]
		fmt.Printf("%s:\n", schema.Attrs[a].Name)
		props := m.Proportions()
		for v, label := range schema.Attrs[a].Values {
			bar := strings.Repeat("#", int(props[v]*50+0.5))
			lo, hi := m.CI(v, 1.96)
			fmt.Printf("  %-14s %5.1f%%  [%4.1f%%,%5.1f%%]  %s\n", label, props[v]*100, lo*100, hi*100, bar)
		}
		fmt.Println()
	}
}

func printAggregates(schema *hdsampler.Schema, tuples []hdsampler.Tuple, where, attr string) error {
	parts := strings.SplitN(where, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("bad -agg-where %q (want attr=value)", where)
	}
	pa := schema.AttrIndex(strings.TrimSpace(parts[0]))
	if pa < 0 {
		return fmt.Errorf("unknown predicate attribute %q", parts[0])
	}
	pv := schema.Attrs[pa].ValueIndex(strings.TrimSpace(parts[1]))
	if pv < 0 {
		return fmt.Errorf("unknown value %q for %q", parts[1], parts[0])
	}
	pred := hiddendb.MustQuery(hiddendb.Predicate{Attr: pa, Value: pv})
	p := hdsampler.ProportionEstimate(tuples, pred)
	fmt.Printf("proportion(%s): %s\n", where, p)
	if attr != "" {
		na := schema.AttrIndex(attr)
		if na < 0 {
			return fmt.Errorf("unknown aggregate attribute %q", attr)
		}
		fmt.Printf("avg(%s | %s): %s\n", attr, where, hdsampler.AvgEstimate(tuples, pred, na))
	}
	return nil
}
