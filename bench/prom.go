package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one scraped /metrics page: series text ("name" or
// "name{labels}") to value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format (0.0.4) as asymd
// writes it: "# ..." comment lines, and "series value" sample lines where
// label values may contain spaces but not newlines.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the last space-separated field; the series (with
		// its label block) is everything before it.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("prometheus text: no value in line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: bad value in line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] += v
	}
	return out, sc.Err()
}

// family sums every series of one metric name, whatever its labels.
func (s promSample) family(name string) float64 {
	sum := 0.0
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}

// add accumulates another node's scrape into s (fleet = sum over nodes).
func (s promSample) add(o promSample) {
	for k, v := range o {
		s[k] += v
	}
}
