package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// summary is one end-to-end metric of one workload over the samples one
// command took. Value is the figure that is reported and judged: the
// median — or, for a wall-clock time, the fastest sample (see
// summarize). No percentile above the median is quoted: a run holds
// fewer than ten samples beyond any of them.
type summary struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize reduces samples to their median, or with fastest to their
// minimum. Interference from other tenants of the host only ever slows
// an iteration, and it comes in bursts that cover most of a 20-second
// run: over runs of the same code the median of a run's iteration
// times spread 12 %, their minimum 6 %, so the minimum is the steadier
// estimate of what the code costs.
func summarize(unit string, samples []float64, fastest bool) summary {
	s := summary{Unit: unit, N: len(samples), Samples: samples}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = (sorted[(len(sorted)-1)/2] + sorted[len(sorted)/2]) / 2
	s.Value = s.Median
	if fastest {
		s.Value = s.Min
	}
	return s
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives — the spread figure the
// acceptance runs use.
func iqrShare(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	x := append([]float64(nil), samples...)
	sort.Float64s(x)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	median := (x[(n-1)/2] + x[n/2]) / 2
	if median == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / median
}

// verdict judges metric d of set b against baseline a. The ratio is
// b's value over a's (the base). "worse" means b's value is worse
// than a's by more than the bound; "unresolved" means it is not, but
// the samples of either side spread wider than the bound, so "no
// worse" cannot be told from noise — unless every sample of b is
// better than every sample of a; otherwise "ok".
func verdict(d metricDecl, a, b summary) (ratio float64, v string) {
	if a.N == 0 || b.N == 0 || a.Value == 0 {
		return 0, "unresolved"
	}
	ratio = b.Value / a.Value
	lower := d.Better != "higher"
	worsening := ratio - 1
	if !lower {
		worsening = 1 - ratio
	}
	if worsening > d.Bound {
		return ratio, "worse"
	}
	if max(iqrShare(a.Samples), iqrShare(b.Samples)) > d.Bound {
		if lower && b.Max < a.Min || !lower && b.Min > a.Max {
			return ratio, "ok"
		}
		return ratio, "unresolved"
	}
	return ratio, "ok"
}

func loadResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

// compare prints, per workload and end-to-end metric, both values,
// the ratio of b to its base a, and the verdict against the metric's
// bound. It also says whether the outputs and the count metrics, which
// must repeat exactly on unchanged code, are identical. It reports
// whether any metric is worse.
func compare(m *manifest, a, b *result, out io.Writer) (worse bool) {
	fmt.Fprintf(out, "%-17s %-19s %12s %12s %-5s %9s %6s  %s\n",
		"workload", "metric", "A", "B", "unit", "B/A", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		for _, d := range m.EndToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa.N == 0 && sb.N == 0 {
				continue
			}
			ratio, v := verdict(d, sa, sb)
			worse = worse || v == "worse"
			fmt.Fprintf(out, "%-17s %-19s %12.4f %12.4f %-5s %8.4fx %5.0f%%  %s\n",
				wa.Name, d.Name, sa.Value, sb.Value, d.Unit, ratio, 100*d.Bound, v)
		}
		if wa.Failed+wb.Failed > 0 {
			worse = true
			fmt.Fprintf(out, "%-17s failed operations: A %d of %d, B %d of %d  worse\n",
				wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
		same := "identical"
		if wa.OutputDigest != wb.OutputDigest {
			same = "DIFFERENT (expected only when a model change or another seed separates A and B)"
		}
		fmt.Fprintf(out, "%-17s output_digest %s\n", wa.Name, same)
		var moved []string
		for _, d := range m.PerLayer {
			va, oka := wa.PerLayer[d.Name]
			vb, okb := wb.PerLayer[d.Name]
			if oka && okb && d.Unit == "count" && va.Value != vb.Value {
				moved = append(moved, fmt.Sprintf("%s %v -> %v", d.Name, va.Value, vb.Value))
			}
		}
		if len(wa.PerLayer) > 0 && len(wb.PerLayer) > 0 {
			fmt.Fprintf(out, "%-17s count metrics that moved: %d %v\n", wa.Name, len(moved), moved)
		}
	}
	return worse
}
