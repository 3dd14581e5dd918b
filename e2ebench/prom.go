package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one exposition snapshot: full series name (family plus
// its raw label block) → value. Scraped before and after a timed phase,
// two snapshots give the per-layer counts as deltas.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format (0.0.4) as the
// daemon writes it: `# …` comment lines, and `name{labels} value` sample
// lines. Label values may contain spaces (route labels do), so the value
// is the field after the last space.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(s, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, s)
		}
		v, err := strconv.ParseFloat(s[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[strings.TrimSpace(s[:i])] = v
	}
	return out, sc.Err()
}

// family is the metric name of a series, without its label block.
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// sum adds every series of one family whose name contains all the given
// label fragments (e.g. `route="POST /v1/scenarios"`). Quantile samples of
// summaries are never summed: their family carries no _sum/_count suffix
// and they carry a quantile label, which is skipped.
func (p promSample) sum(fam string, labels ...string) float64 {
	total := 0.0
	for name, v := range p {
		if family(name) != fam || strings.Contains(name, "quantile=") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(name, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after − before for the summed family.
func delta(before, after promSample, fam string, labels ...string) float64 {
	return after.sum(fam, labels...) - before.sum(fam, labels...)
}

// meanDelta is the mean of a summary's observations made between two
// scrapes, from its _sum and _count deltas (0 when none were made).
func meanDelta(before, after promSample, fam string, labels ...string) float64 {
	return ratio(delta(before, after, fam+"_sum", labels...), delta(before, after, fam+"_count", labels...))
}
