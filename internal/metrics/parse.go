package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line. The parser exists for the
// repository's own scrapers (lactl, the chaos watcher, CI
// assertions) — it handles exactly what Registry.Render emits plus ordinary
// Prometheus text, not the full OpenMetrics grammar.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the sample's value for a label name ("" if absent).
func (s Sample) Label(name string) string { return s.Labels[name] }

// ParseText parses an exposition document into samples, skipping comments
// and blank lines.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseLine(line string) (Sample, error) {
	s := Sample{}
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return s, fmt.Errorf("no value on sample line %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	// A trailing timestamp (rare, optional) would be a second field; take
	// the first.
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		rest = rest[:j]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a {k="v",...} block (escapes honored) and returns
// the remainder of the line.
func parseLabels(in string) (map[string]string, string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return labels, in[i+1:], nil
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("unterminated label block in %q", in)
		}
		name := strings.TrimSpace(in[i : i+eq])
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return nil, "", fmt.Errorf("unquoted label value in %q", in)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(in) {
				return nil, "", fmt.Errorf("unterminated label value in %q", in)
			}
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				switch in[i+1] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(in[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		labels[name] = b.String()
	}
}

// Find returns the value of the first sample matching name and every given
// label.
func Find(samples []Sample, name string, match ...Label) (float64, bool) {
	for _, s := range samples {
		if s.Name != name || !labelsMatch(s, match) {
			continue
		}
		return s.Value, true
	}
	return 0, false
}

// Sum adds every sample matching name and the given labels.
func Sum(samples []Sample, name string, match ...Label) float64 {
	var total float64
	for _, s := range samples {
		if s.Name == name && labelsMatch(s, match) {
			total += s.Value
		}
	}
	return total
}

func labelsMatch(s Sample, match []Label) bool {
	for _, m := range match {
		if s.Labels[m.Name] != m.Value {
			return false
		}
	}
	return true
}

// SampleQuantile estimates quantile q from a rendered histogram's _bucket
// samples (matching the given extra labels), interpolating linearly within
// the winning bucket the way promql's histogram_quantile does. It returns
// false when no observations match.
func SampleQuantile(samples []Sample, name string, q float64, match ...Label) (float64, bool) {
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	for _, s := range samples {
		if s.Name != name+"_bucket" || !labelsMatch(s, match) {
			continue
		}
		le := s.Label("le")
		if le == "+Inf" {
			buckets = append(buckets, bucket{le: math.Inf(1), cum: s.Value})
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le: b, cum: s.Value})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * total
	prevBound, prevCum := 0.0, 0.0
	for _, b := range buckets {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return prevBound, true
			}
			if b.cum == prevCum {
				return b.le, true
			}
			frac := (rank - prevCum) / (b.cum - prevCum)
			return prevBound + (b.le-prevBound)*frac, true
		}
		prevBound, prevCum = b.le, b.cum
	}
	return buckets[len(buckets)-1].le, true
}
