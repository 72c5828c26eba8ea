package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// compareFiles prints, one row per workload x end-to-end metric, only
// the differences between two sets of reports that go beyond the
// metric's declared bound. Each file holds one or more -out reports
// back to back (cat them together); several reports of one workload
// are reduced to their median and their interquartile spread. A row
// whose spread exceeds the bound is marked unresolved: the runs cannot
// tell a change that size from noise.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := loadReports(parentPath)
	if err != nil {
		return err
	}
	change, err := loadReports(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "parent", "change", "delta", "bound", "spread", "verdict")
	rows := 0
	for _, wl := range workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		if failed(p) || failed(c) {
			fmt.Fprintf(w, "%-16s failed operations: parent %v, change %v\n", wl.Name, failed(p), failed(c))
			rows++
		}
		for _, spec := range endToEnd {
			pv, ps := reduce(p, spec.Name)
			cv, cs := reduce(c, spec.Name)
			if pv == 0 {
				continue
			}
			delta := (cv - pv) / pv
			worse := delta
			if spec.Better == "higher" {
				worse = -delta
			}
			sp := max(ps, cs)
			verdict := ""
			switch {
			case sp > spec.Bound:
				verdict = "unresolved: spread exceeds bound"
			case worse > spec.Bound:
				verdict = "REGRESSION"
			case -worse > spec.Bound:
				verdict = "improvement"
			default:
				continue
			}
			fmt.Fprintf(w, "%-16s %-18s %12.4f %12.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				wl.Name, spec.Name, pv, cv, 100*delta, 100*spec.Bound, 100*sp, verdict)
			rows++
		}
	}
	if rows == 0 {
		fmt.Fprintln(w, "no difference beyond the declared bounds")
	}
	return nil
}

// loadReports reads the timed reports of a file, grouped by workload.
func loadReports(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	dec := json.NewDecoder(f)
	for {
		var rep report
		if err := dec.Decode(&rep); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rep.Trace {
			out[rep.Workload] = append(out[rep.Workload], &rep)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no timed (--trace 0) report", path)
	}
	return out, nil
}

func failed(reps []*report) bool {
	return slices.ContainsFunc(reps, func(r *report) bool { return !r.Correct })
}

// reduce returns a metric's median over the reports and its spread:
// the interquartile range over the median with four or more reports,
// the range over the median with two or three, and the run's own pass
// spread with one.
func reduce(reps []*report, name string) (value, spreadOut float64) {
	vals := make([]float64, len(reps))
	for i, r := range reps {
		vals[i] = r.Metrics[name].Value
	}
	slices.Sort(vals)
	med := median(vals)
	switch n := len(vals); {
	case n == 1:
		return med, reps[0].Metrics[name].Spread
	case n < 4 || med == 0:
		return med, spread(vals)
	default:
		return med, (vals[3*n/4] - vals[n/4]) / med
	}
}
