// Package obstest holds the test oracles for package obs's output: the
// metrics exposition validator here, and in trace.go the readers that
// parse JSONL and Chrome trace files back and validate their schema. Only
// test files import it, so none of it ships in a command.
//
// ValidateExposition is a hand-rolled validator for the Prometheus text
// exposition format, used by the WriteText and /metrics tests and by
// TestScrapedExposition, which checks a scrape of a live server against
// the same grammar a real Prometheus scraper applies. It deliberately
// covers only the subset this repo emits (no timestamps, integer-valued
// samples with optional float syntax, only the `le` label on histogram
// buckets) but checks that subset strictly.
package obstest

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?|[+-]Inf|NaN)$`)
	labelRe      = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// expoSeries accumulates one metric family's samples during validation.
type expoSeries struct {
	typ     string
	buckets []bucketSample // histogram _bucket samples in emission order
	sum     *float64
	count   *float64
	value   *float64 // counter/gauge sample
	done    bool     // a different family has been seen since
}

type bucketSample struct {
	le    float64
	count float64
}

// ValidateExposition parses a text exposition and returns the first
// violation found, or nil. Enforced rules:
//
//   - every line is a # HELP / # TYPE comment or a sample, with a
//     trailing newline on the final line;
//   - metric and label names match the exposition grammar, values parse
//     as floats, label values use valid escapes;
//   - at most one TYPE per family, appearing before its samples, with a
//     known metric type, and each family's samples are contiguous;
//   - counters are non-negative;
//   - histograms have ascending le bounds with non-decreasing cumulative
//     counts, a +Inf bucket, _sum and _count, and +Inf == _count.
func ValidateExposition(data []byte) error {
	text := string(data)
	if text == "" {
		return nil
	}
	if !strings.HasSuffix(text, "\n") {
		return fmt.Errorf("exposition does not end in a newline")
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")

	series := map[string]*expoSeries{}
	current := "" // family of the sample block being read
	at := func(i int) string { return fmt.Sprintf("line %d", i+1) }

	get := func(fam string) *expoSeries {
		s, ok := series[fam]
		if !ok {
			s = &expoSeries{}
			series[fam] = s
		}
		return s
	}
	// switchTo marks the previously-read family finished; returning to a
	// finished family means its samples were not contiguous.
	switchTo := func(fam string, i int) error {
		if fam == current {
			return nil
		}
		if current != "" {
			get(current).done = true
		}
		if get(fam).done {
			return fmt.Errorf("%s: samples for %q are not contiguous", at(i), fam)
		}
		current = fam
		return nil
	}

	for i, line := range lines {
		switch {
		case line == "":
			return fmt.Errorf("%s: empty line", at(i))
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok && name == "" {
				return fmt.Errorf("%s: malformed HELP line", at(i))
			}
			if !metricNameRe.MatchString(name) {
				return fmt.Errorf("%s: invalid metric name %q in HELP", at(i), name)
			}
			if err := validHelpEscapes(help); err != nil {
				return fmt.Errorf("%s: %v", at(i), err)
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return fmt.Errorf("%s: malformed TYPE line", at(i))
			}
			name, typ := fields[0], fields[1]
			if !metricNameRe.MatchString(name) {
				return fmt.Errorf("%s: invalid metric name %q in TYPE", at(i), name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("%s: unknown metric type %q", at(i), typ)
			}
			s := get(name)
			if s.typ != "" {
				return fmt.Errorf("%s: duplicate TYPE for %q", at(i), name)
			}
			if s.value != nil || s.sum != nil || s.count != nil || len(s.buckets) > 0 {
				return fmt.Errorf("%s: TYPE for %q after its samples", at(i), name)
			}
			s.typ = typ
		case strings.HasPrefix(line, "#"):
			return fmt.Errorf("%s: unknown comment form %q", at(i), line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				return fmt.Errorf("%s: malformed sample %q", at(i), line)
			}
			name, labels, valStr := m[1], m[2], m[3]
			val, err := parseExpoValue(valStr)
			if err != nil {
				return fmt.Errorf("%s: %v", at(i), err)
			}
			fam, kind := familyOf(name, series)
			if err := switchTo(fam, i); err != nil {
				return err
			}
			s := get(fam)
			switch kind {
			case "bucket":
				le, err := bucketLE(labels)
				if err != nil {
					return fmt.Errorf("%s: %v", at(i), err)
				}
				s.buckets = append(s.buckets, bucketSample{le: le, count: val})
			case "sum":
				if s.sum != nil {
					return fmt.Errorf("%s: duplicate %s_sum", at(i), fam)
				}
				s.sum = &val
			case "count":
				if s.count != nil {
					return fmt.Errorf("%s: duplicate %s_count", at(i), fam)
				}
				if val < 0 {
					return fmt.Errorf("%s: negative count %v", at(i), val)
				}
				s.count = &val
			default:
				if labels != "" {
					if err := validLabels(labels); err != nil {
						return fmt.Errorf("%s: %v", at(i), err)
					}
				}
				if s.value != nil {
					return fmt.Errorf("%s: duplicate sample for %q", at(i), name)
				}
				if s.typ == "counter" && val < 0 {
					return fmt.Errorf("%s: counter %q is negative (%v)", at(i), name, val)
				}
				s.value = &val
			}
		}
	}

	for fam, s := range series {
		if err := checkFamily(fam, s); err != nil {
			return err
		}
	}
	return nil
}

// familyOf strips a histogram-sample suffix when the base name is a
// declared histogram family, so `foo_count` belongs to histogram `foo`
// but a plain counter named `jobs_count` stands alone.
func familyOf(name string, series map[string]*expoSeries) (fam, kind string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base == name {
			continue
		}
		if s, ok := series[base]; ok && s.typ == "histogram" {
			return base, suf[1:]
		}
	}
	return name, ""
}

// checkFamily enforces the per-family invariants once all samples are in.
func checkFamily(fam string, s *expoSeries) error {
	if s.typ != "histogram" {
		if len(s.buckets) > 0 || s.sum != nil || s.count != nil {
			return fmt.Errorf("family %q: histogram samples on a %q metric", fam, s.typ)
		}
		if s.typ != "" && s.value == nil {
			return fmt.Errorf("family %q: TYPE declared but no sample", fam)
		}
		return nil
	}
	if len(s.buckets) == 0 {
		return fmt.Errorf("histogram %q: no _bucket samples", fam)
	}
	if s.sum == nil {
		return fmt.Errorf("histogram %q: missing _sum", fam)
	}
	if s.count == nil {
		return fmt.Errorf("histogram %q: missing _count", fam)
	}
	prev := math.Inf(-1)
	prevCount := 0.0
	for _, b := range s.buckets {
		if b.le <= prev {
			return fmt.Errorf("histogram %q: le bounds not ascending (%v after %v)", fam, b.le, prev)
		}
		if b.count < prevCount {
			return fmt.Errorf("histogram %q: cumulative count decreases at le=%v (%v < %v)",
				fam, b.le, b.count, prevCount)
		}
		prev, prevCount = b.le, b.count
	}
	last := s.buckets[len(s.buckets)-1]
	if !math.IsInf(last.le, 1) {
		return fmt.Errorf("histogram %q: missing +Inf bucket", fam)
	}
	if last.count != *s.count {
		return fmt.Errorf("histogram %q: +Inf bucket %v != _count %v", fam, last.count, *s.count)
	}
	return nil
}

// bucketLE extracts the le bound from a _bucket label set.
func bucketLE(labels string) (float64, error) {
	if labels == "" {
		return 0, fmt.Errorf("_bucket sample without labels")
	}
	body := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	for _, pair := range splitLabels(body) {
		m := labelRe.FindStringSubmatch(pair)
		if m == nil {
			return 0, fmt.Errorf("malformed label %q", pair)
		}
		if m[1] != "le" {
			continue
		}
		v, err := parseExpoValue(m[2])
		if err != nil {
			return 0, fmt.Errorf("bad le bound %q: %v", m[2], err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("_bucket sample without an le label")
}

// validLabels checks every pair in a {k="v",...} block.
func validLabels(labels string) error {
	body := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	if body == "" {
		return nil
	}
	for _, pair := range splitLabels(body) {
		if !labelRe.MatchString(pair) {
			return fmt.Errorf("malformed label %q", pair)
		}
	}
	return nil
}

// splitLabels splits k="v",k2="v2" on commas outside quotes.
func splitLabels(body string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			if depth {
				i++ // skip escaped char
			}
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	return append(out, body[start:])
}

// parseExpoValue parses a sample value, accepting the +Inf/-Inf/NaN
// spellings the format uses.
func parseExpoValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("unparseable value %q", s)
	}
	return v, nil
}

// validHelpEscapes rejects a bare backslash not forming \\ or \n.
func validHelpEscapes(s string) error {
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			continue
		}
		if i+1 >= len(s) || (s[i+1] != '\\' && s[i+1] != 'n') {
			return fmt.Errorf("invalid escape in HELP text at byte %d", i)
		}
		i++
	}
	return nil
}
