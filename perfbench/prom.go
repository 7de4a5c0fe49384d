package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// promSample is one series value from a Prometheus text exposition.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// promSet is a parsed exposition.
type promSet []promSample

// parseProm reads the Prometheus text format (0.0.4): comment lines are
// skipped; every other line is `name{labels} value [timestamp]`.
func parseProm(r io.Reader) (promSet, error) {
	var out promSet
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' {
			continue
		}
		ps, err := parsePromLine(s)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out = append(out, ps)
	}
	return out, sc.Err()
}

func parsePromLine(s string) (promSample, error) {
	var ps promSample
	i := strings.IndexAny(s, "{ ")
	if i <= 0 {
		return ps, fmt.Errorf("no value in %q", s)
	}
	ps.Name = s[:i]
	rest := s[i:]
	if rest[0] == '{' {
		labels, n, err := parsePromLabels(rest)
		if err != nil {
			return ps, err
		}
		ps.Labels = labels
		rest = rest[n:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 {
		return ps, fmt.Errorf("bad value in %q", s)
	}
	v, err := parsePromFloat(fields[0])
	if err != nil {
		return ps, fmt.Errorf("bad value in %q: %w", s, err)
	}
	ps.Value = v
	return ps, nil
}

// parsePromLabels parses `{k="v",...}` at the start of s, returning the
// labels and the bytes consumed.
func parsePromLabels(s string) (map[string]string, int, error) {
	labels := map[string]string{}
	i := 1
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i >= len(s) {
			return nil, 0, fmt.Errorf("unterminated labels in %q", s)
		}
		if s[i] == '}' {
			return labels, i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			return nil, 0, fmt.Errorf("bad label in %q", s)
		}
		name := s[i : i+eq]
		i += eq + 2
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, 0, fmt.Errorf("unterminated label value in %q", s)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				i++
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels[name] = val.String()
	}
}

func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// sum adds every series of the named metric whose labels include all of
// the given name/value pairs.
func (p promSet) sum(name string, match ...string) float64 {
	var t float64
	for _, s := range p {
		if s.Name != name || !s.has(match) {
			continue
		}
		t += s.Value
	}
	return t
}

func (s promSample) has(match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if s.Labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}

// hist is a histogram's running totals: observation count and sum.
type hist struct{ Count, Sum float64 }

// histogram reads the _count and _sum series of a histogram family.
func (p promSet) histogram(name string, match ...string) hist {
	return hist{Count: p.sum(name+"_count", match...), Sum: p.sum(name+"_sum", match...)}
}

// sub is the histogram's growth since an earlier reading.
func (h hist) sub(o hist) hist { return hist{Count: h.Count - o.Count, Sum: h.Sum - o.Sum} }

// meanUS is the mean observation in microseconds (observations in
// seconds); 0 without observations.
func (h hist) meanUS() float64 { return ratio(h.Sum*1e6, h.Count) }
