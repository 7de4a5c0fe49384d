// Package webui serves HDSampler's interactive front end: the attribute
// and sample-size settings of the demo's Figure 3, the efficiency↔skew
// slider of §3.1, live-updating marginal histograms and recent samples of
// Figure 4 (polled AJAX-style), an aggregate-query box (§3.4), and the kill
// switch. It drives any formclient.Conn.
package webui

import (
	"context"
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"sync"

	"hdsampler"
	"hdsampler/internal/estimate"
	"hdsampler/internal/formclient"
	"hdsampler/internal/hiddendb"
)

// Server is the front-end HTTP handler. One sampling run is active at a
// time, mirroring the demo's single-analyst flow.
type Server struct {
	conn formclient.Conn
	k    int

	mu       sync.Mutex
	schema   *hiddendb.Schema
	run      *run
	nextSeed int64
}

// run is one sampling session.
type run struct {
	pipeline *hdsampler.Pipeline
	acc      *estimate.Accumulator
	target   int
	attrs    []int
	mu       sync.Mutex
	samples  []hiddendb.Tuple
	done     bool
	err      error
}

// NewServer builds the UI over a connector; k is the target interface's
// top-k limit (used for the slider-to-C mapping; 0 defaults to 1000).
func NewServer(conn formclient.Conn, k int) *Server {
	if k <= 0 {
		k = 1000
	}
	return &Server{conn: conn, k: k}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/" && r.Method == http.MethodGet:
		s.handleSettings(w, r)
	case r.URL.Path == "/start" && r.Method == http.MethodPost:
		s.handleStart(w, r)
	case r.URL.Path == "/stop" && r.Method == http.MethodPost:
		s.handleStop(w, r)
	case r.URL.Path == "/status" && r.Method == http.MethodGet:
		s.handleStatus(w, r)
	case r.URL.Path == "/aggregate" && r.Method == http.MethodGet:
		s.handleAggregate(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) getSchema(ctx context.Context) (*hiddendb.Schema, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.schema != nil {
		return s.schema, nil
	}
	schema, err := s.conn.Schema(ctx)
	if err != nil {
		return nil, err
	}
	s.schema = schema
	return schema, nil
}

var settingsTmpl = template.Must(template.New("settings").Parse(`<!DOCTYPE html>
<html>
<head><title>HDSampler</title>
<style>
body{font-family:sans-serif;margin:2em;max-width:60em}
.bar{background:#4a90d9;height:1em;display:inline-block}
.truth{background:#e0a030;height:0.4em;display:inline-block}
table{border-collapse:collapse} td,th{padding:2px 8px;text-align:left}
#hist div.row{white-space:nowrap}
label{margin-right:1em}
</style>
</head>
<body>
<h1>HDSampler — {{.SchemaName}}</h1>
<form method="post" action="/start">
<h2>Attributes to sample</h2>
{{range .Attrs}}<label><input type="checkbox" name="attr" value="{{.Index}}" checked> {{.Name}} ({{.Domain}} values)</label>
{{end}}
<h2>Settings</h2>
<p><label>samples: <input type="number" name="n" value="200" min="1"></label>
<label>method:
<select name="method">
  <option value="walk">random walk (HIDDEN-DB-SAMPLER)</option>
  <option value="count">count-weighted drill-down</option>
  <option value="brute">brute force (validation)</option>
</select></label></p>
<p><label>efficiency &harr; accuracy:
<input type="range" name="slider" min="0" max="100" value="85"></label>
(left = fast/skewed, right = slow/uniform)</p>
<p><label><input type="checkbox" name="history" checked> reuse query history</label>
<label><input type="checkbox" name="shuffle" checked> shuffle attribute order</label></p>
<p><input type="submit" value="Start sampling"></p>
</form>
<div id="live" style="display:none">
<h2>Progress</h2>
<p id="progress"></p>
<button onclick="fetch('/stop',{method:'POST'})">Stop (kill switch)</button>
<h2>Marginal histograms</h2>
<div id="hist"></div>
<h2>Aggregate query</h2>
<p>
<select id="aggop"><option>count</option><option>sum</option><option>avg</option></select>
<select id="aggattr"></select> where <select id="predattr"></select> = <select id="predval"></select>
<button onclick="runAgg()">Estimate</button>
<span id="aggout"></span>
</p>
<h2>Recent samples</h2>
<div id="recent"></div>
</div>
<script>
const schema = {{.SchemaJSON}};
function fillSelect(el, items){ el.innerHTML=''; items.forEach((x,i)=>{const o=document.createElement('option');o.value=i;o.textContent=x;el.appendChild(o);}); }
function initAgg(){
  fillSelect(document.getElementById('aggattr'), schema.attrs.map(a=>a.name));
  fillSelect(document.getElementById('predattr'), schema.attrs.map(a=>a.name));
  document.getElementById('predattr').onchange = e => fillSelect(document.getElementById('predval'), schema.attrs[e.target.value].values);
  fillSelect(document.getElementById('predval'), schema.attrs[0].values);
}
function runAgg(){
  const q = '/aggregate?op='+document.getElementById('aggop').value+
    '&attr='+document.getElementById('aggattr').value+
    '&predattr='+document.getElementById('predattr').value+
    '&predval='+document.getElementById('predval').value;
  fetch(q).then(r=>r.json()).then(j=>{document.getElementById('aggout').textContent = j.error? j.error : (j.value.toFixed(2)+' ± '+j.stderr.toFixed(2)+' (n='+j.n+')');});
}
function poll(){
  fetch('/status').then(r=>r.json()).then(j=>{
    if(!j.active){ return; }
    document.getElementById('live').style.display='block';
    document.getElementById('progress').textContent =
      j.accepted+' / '+j.target+' samples, '+j.candidates+' candidates, '+j.queries+' queries'+(j.done?' — done':'')+(j.error?(' — error: '+j.error):'');
    const hist = document.getElementById('hist'); hist.innerHTML='';
    j.marginals.forEach(m=>{
      const h=document.createElement('h3'); h.textContent=m.name; hist.appendChild(h);
      const max = Math.max(1, ...m.counts);
      m.counts.forEach((c,i)=>{
        const row=document.createElement('div'); row.className='row';
        row.innerHTML = '<span style="display:inline-block;width:10em">'+m.values[i]+'</span>'+
          '<span class="bar" style="width:'+(c*300/max)+'px"></span> '+c;
        hist.appendChild(row);
      });
    });
    const rec = document.getElementById('recent');
    rec.innerHTML = '<table><tr>'+schema.attrs.map(a=>'<th>'+a.name+'</th>').join('')+'</tr>'+
      j.recent.map(r=>'<tr>'+r.map(c=>'<td>'+c+'</td>').join('')+'</tr>').join('')+'</table>';
  });
}
initAgg();
setInterval(poll, 700);
poll();
</script>
</body>
</html>
`))

type settingsAttr struct {
	Index  int
	Name   string
	Domain int
}

func (s *Server) handleSettings(w http.ResponseWriter, r *http.Request) {
	schema, err := s.getSchema(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	type jsAttr struct {
		Name   string   `json:"name"`
		Values []string `json:"values"`
	}
	js := struct {
		Attrs []jsAttr `json:"attrs"`
	}{}
	var attrs []settingsAttr
	for i := range schema.Attrs {
		attrs = append(attrs, settingsAttr{Index: i, Name: schema.Attrs[i].Name, Domain: schema.DomainSize(i)})
		js.Attrs = append(js.Attrs, jsAttr{Name: schema.Attrs[i].Name, Values: schema.Attrs[i].Values})
	}
	blob, err := json.Marshal(js)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data := struct {
		SchemaName string
		Attrs      []settingsAttr
		SchemaJSON template.JS
	}{schema.Name, attrs, template.JS(blob)}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := settingsTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleStart(w http.ResponseWriter, r *http.Request) {
	schema, err := s.getSchema(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n, err := strconv.Atoi(r.Form.Get("n"))
	if err != nil || n < 1 {
		http.Error(w, "bad sample count", http.StatusBadRequest)
		return
	}
	sliderPos, err := strconv.Atoi(r.Form.Get("slider"))
	if err != nil || sliderPos < 0 || sliderPos > 100 {
		http.Error(w, "bad slider", http.StatusBadRequest)
		return
	}
	var attrs []int
	for _, v := range r.Form["attr"] {
		a, err := strconv.Atoi(v)
		if err != nil || a < 0 || a >= schema.NumAttrs() {
			http.Error(w, "bad attribute", http.StatusBadRequest)
			return
		}
		attrs = append(attrs, a)
	}
	if len(attrs) == 0 {
		http.Error(w, "select at least one attribute", http.StatusBadRequest)
		return
	}

	cfg := hdsampler.Config{
		// Slider 100 = most uniform in the UI; the Config slider's 1 is
		// fastest, so invert.
		Slider:       1 - float64(sliderPos)/100,
		SliderSet:    true,
		K:            s.k,
		Attrs:        attrs,
		ShuffleOrder: r.Form.Get("shuffle") != "",
		UseHistory:   r.Form.Get("history") != "",
	}
	switch r.Form.Get("method") {
	case "walk", "":
		cfg.Method = hdsampler.MethodRandomWalk
	case "count":
		cfg.Method = hdsampler.MethodCountWeighted
	case "brute":
		cfg.Method = hdsampler.MethodBruteForce
	default:
		http.Error(w, "bad method", http.StatusBadRequest)
		return
	}
	// Take the seed and advance the counter in one critical section, so
	// concurrent starts neither race on nextSeed nor share a seed (New
	// seeds the rejector with Seed+1, hence the step of 2).
	s.mu.Lock()
	cfg.Seed = s.nextSeed
	s.nextSeed += 2
	s.mu.Unlock()

	//hdlint:ignore ctxflow the launched run outlives the submitting HTTP request by design; deriving from r.Context() would cancel it on response
	ctx := context.Background()
	sampler, err := hdsampler.New(ctx, s.conn, cfg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	ru := &run{
		pipeline: sampler.NewPipeline(n),
		acc:      estimate.NewAccumulator(schema, 20),
		target:   n,
		attrs:    attrs,
	}
	// Start before publishing the run, so a concurrent start or /stop only
	// ever stops a started pipeline.
	ch := ru.pipeline.Start(ctx)

	s.mu.Lock()
	if s.run != nil {
		s.run.pipeline.Stop()
	}
	s.run = ru
	s.mu.Unlock()

	go func() {
		for sample := range ch {
			ru.mu.Lock()
			ru.acc.Add(sample.Tuple)
			ru.samples = append(ru.samples, sample.Tuple)
			ru.mu.Unlock()
		}
		ru.mu.Lock()
		ru.done = true
		ru.err = ru.pipeline.Err()
		ru.mu.Unlock()
	}()
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ru := s.run
	s.mu.Unlock()
	if ru != nil {
		ru.pipeline.Stop()
	}
	w.WriteHeader(http.StatusNoContent)
}

// statusResponse is the polled JSON the page renders.
type statusResponse struct {
	Active     bool             `json:"active"`
	Done       bool             `json:"done"`
	Error      string           `json:"error,omitempty"`
	Target     int              `json:"target"`
	Accepted   int64            `json:"accepted"`
	Candidates int64            `json:"candidates"`
	Queries    int64            `json:"queries"`
	Marginals  []statusMarginal `json:"marginals"`
	Recent     [][]string       `json:"recent"`
}

type statusMarginal struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
	Counts []int    `json:"counts"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ru := s.run
	schema := s.schema
	s.mu.Unlock()
	if ru == nil || schema == nil {
		writeJSON(w, statusResponse{Active: false})
		return
	}
	ru.mu.Lock()
	defer ru.mu.Unlock()
	pr := ru.pipeline.Progress()
	resp := statusResponse{
		Active:     true,
		Done:       ru.done,
		Target:     ru.target,
		Accepted:   pr.Accepted,
		Candidates: pr.Candidates,
		Queries:    pr.Queries,
	}
	if ru.err != nil {
		resp.Error = ru.err.Error()
	}
	for _, a := range ru.attrs {
		m := ru.acc.Marginal(a)
		resp.Marginals = append(resp.Marginals, statusMarginal{
			Name:   schema.Attrs[a].Name,
			Values: schema.Attrs[a].Values,
			Counts: m.Counts,
		})
	}
	for _, tu := range ru.acc.Recent() {
		row := make([]string, len(tu.Vals))
		for a, v := range tu.Vals {
			if a < schema.NumAttrs() && v >= 0 && v < schema.DomainSize(a) {
				row[a] = schema.Attrs[a].Values[v]
			}
		}
		resp.Recent = append(resp.Recent, row)
	}
	writeJSON(w, resp)
}

// aggResponse answers an aggregate-query request.
type aggResponse struct {
	Value  float64 `json:"value"`
	StdErr float64 `json:"stderr"`
	N      int     `json:"n"`
	Error  string  `json:"error,omitempty"`
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ru := s.run
	schema := s.schema
	s.mu.Unlock()
	if ru == nil || schema == nil {
		writeJSON(w, aggResponse{Error: "no sampling run yet"})
		return
	}
	q := r.URL.Query()
	op := q.Get("op")
	attr, err1 := strconv.Atoi(q.Get("attr"))
	predAttr, err2 := strconv.Atoi(q.Get("predattr"))
	predVal, err3 := strconv.Atoi(q.Get("predval"))
	if err1 != nil || err2 != nil || err3 != nil ||
		attr < 0 || attr >= schema.NumAttrs() ||
		predAttr < 0 || predAttr >= schema.NumAttrs() ||
		predVal < 0 || predVal >= schema.DomainSize(predAttr) {
		writeJSON(w, aggResponse{Error: "bad aggregate parameters"})
		return
	}
	pred := hiddendb.MustQuery(hiddendb.Predicate{Attr: predAttr, Value: predVal})

	ru.mu.Lock()
	samples := append([]hiddendb.Tuple(nil), ru.samples...)
	ru.mu.Unlock()

	var est estimate.Estimate
	switch op {
	case "count":
		// Without a known population size the UI reports the proportion.
		est = estimate.Proportion(samples, pred)
	case "sum":
		est = estimate.Sum(samples, pred, attr, 1) // per-row scale
	case "avg":
		est = estimate.Avg(samples, pred, attr)
	default:
		writeJSON(w, aggResponse{Error: fmt.Sprintf("unknown op %q", op)})
		return
	}
	writeJSON(w, aggResponse{Value: est.Value, StdErr: est.StdErr, N: est.N})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
