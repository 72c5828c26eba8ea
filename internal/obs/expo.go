package obs

import (
	"bufio"
	"io"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE pair per family,
// then every series of that family, in registration order. Histogram
// buckets are cumulative with le-inclusive bounds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.snapshotMetrics()
	bw := bufio.NewWriter(w)
	seen := map[string]bool{}
	for _, m := range snap {
		if !seen[m.family] {
			seen[m.family] = true
			if m.help != "" {
				bw.WriteString("# HELP " + m.family + " " + m.help + "\n")
			}
			bw.WriteString("# TYPE " + m.family + " " + m.kind.String() + "\n")
		}
		switch m.kind {
		case kindCounter:
			bw.WriteString(m.family + m.labels + " " + fmtFloat(float64(m.counter.Load())) + "\n")
		case kindGaugeFunc:
			bw.WriteString(m.family + m.labels + " " + fmtFloat(m.gaugeFn()) + "\n")
		case kindHistogram:
			h := m.hist.snapshot()
			var cum uint64
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				bw.WriteString(m.family + "_bucket" + withLabel(m.labels, "le", fmtFloat(bound)) +
					" " + fmtFloat(float64(cum)) + "\n")
			}
			cum += h.Counts[len(h.Counts)-1]
			bw.WriteString(m.family + "_bucket" + withLabel(m.labels, "le", "+Inf") +
				" " + fmtFloat(float64(cum)) + "\n")
			bw.WriteString(m.family + "_sum" + m.labels + " " + fmtFloat(h.Sum) + "\n")
			bw.WriteString(m.family + "_count" + m.labels + " " + fmtFloat(float64(h.Count)) + "\n")
		}
	}
	return bw.Flush()
}

// withLabel splices one extra label pair into an already-rendered
// label fragment.
func withLabel(labels, k, v string) string {
	pair := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// snapshotMetrics copies the registration table under the read lock
// so exposition iterates without holding it.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*metric, len(r.order))
	copy(out, r.order)
	return out
}
