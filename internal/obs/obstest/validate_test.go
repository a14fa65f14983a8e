package obstest

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var exposition = flag.String("exposition", "",
	"comma-separated Prometheus text exposition files (e.g. scraped /metrics) for TestScrapedExposition")

// TestScrapedExposition validates exposition files named on the command
// line, such as /metrics scrapes of a live server:
//
//	go test ./internal/obs/obstest -run TestScrapedExposition -args -exposition mid.txt,final.txt
//
// It skips when no file is given.
func TestScrapedExposition(t *testing.T) {
	if *exposition == "" {
		t.Skip("no -exposition files given")
	}
	for _, path := range strings.Split(*exposition, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition(data); err != nil {
			t.Errorf("%s: invalid exposition: %v", path, err)
			continue
		}
		t.Logf("%s: exposition valid (%d bytes)", path, len(data))
	}
}

// TestValidateExpositionRejects walks the violations the validator
// exists to catch; each sample must be rejected with a non-nil error.
func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no trailing newline": "a 1",
		"empty line":          "a 1\n\nb 2\n",
		"bad metric name":     "1bad 1\n",
		"bad value":           "a one\n",
		"unknown comment":     "# COMMENT a b\n",
		"unknown type":        "# TYPE a flummox\n",
		"duplicate TYPE":      "# TYPE a counter\n# TYPE a counter\na 1\n",
		"TYPE after samples":  "a 1\n# TYPE a counter\n",
		"negative counter":    "# TYPE a counter\na -1\n",
		"duplicate sample":    "a 1\na 2\n",
		"non-contiguous":      "a 1\nb 2\na 3\n",
		"malformed label":     "a{le=\"x} 1\n",
		"hist no buckets":     "# TYPE h histogram\nh_sum 1\nh_count 1\n",
		"hist no sum":         "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"hist no count":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
		"hist no +Inf":        "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 1\nh_count 1\n",
		"hist le not ascending": "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"5\"} 2\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"hist not cumulative": "# TYPE h histogram\nh_bucket{le=\"10\"} 3\nh_bucket{le=\"20\"} 2\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"hist inf != count": "# TYPE h histogram\nh_bucket{le=\"10\"} 1\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"bucket without le": "# TYPE h histogram\nh_bucket{x=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"bad help escape":   "# HELP a bad \\q escape\n# TYPE a counter\na 1\n",
	}
	for name, input := range cases {
		if err := ValidateExposition([]byte(input)); err == nil {
			t.Errorf("%s: validator accepted:\n%s", name, input)
		}
	}
}

// TestValidateExpositionAccepts covers valid corner spellings that a
// too-strict validator would wrongly reject.
func TestValidateExpositionAccepts(t *testing.T) {
	cases := map[string]string{
		"empty input":      "",
		"untyped sample":   "a 1\n",
		"negative gauge":   "# TYPE g gauge\ng -5\n",
		"float value":      "a 1.25\n",
		"scientific value": "a 1.5e+03\n",
		"labelled sample":  "a{job=\"bench\",run=\"7\"} 1\n",
		"escaped label":    "a{msg=\"say \\\"hi\\\"\"} 1\n",
		"counter named _count": "# TYPE jobs_count counter\njobs_count 3\n" +
			"# TYPE other gauge\nother 1\n",
	}
	for name, input := range cases {
		if err := ValidateExposition([]byte(input)); err != nil {
			t.Errorf("%s: validator rejected valid input: %v\n%s", name, err, input)
		}
	}
}
