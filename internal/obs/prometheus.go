package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per metric family, samples
// sorted by name, histograms expanded into cumulative `_bucket{le=…}`
// series plus `_sum` and `_count`. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	typed := map[string]bool{}
	for _, m := range r.Snapshot() {
		base := baseName(m.Name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, m.Kind); err != nil {
				return err
			}
		}
		switch m.Kind {
		case "histogram":
			if err := writeHistogram(w, m.Name, m.Hist); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatValue(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram expands one histogram into its bucket/sum/count series.
// Labels already present in the name are merged with the le label.
func writeHistogram(w io.Writer, name string, h *HistogramSnapshot) error {
	base, labels := splitLabels(name)
	for i, bound := range h.Bounds {
		if err := writeSample(w, base+"_bucket", labels, "le", formatValue(bound),
			strconv.FormatInt(h.Cumulative[i], 10)); err != nil {
			return err
		}
	}
	if err := writeSample(w, base+"_bucket", labels, "le", "+Inf",
		strconv.FormatInt(h.Count, 10)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", base+"_sum"+wrapLabels(labels), formatValue(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", base+"_count"+wrapLabels(labels), h.Count)
	return err
}

func writeSample(w io.Writer, base, labels, extraKey, extraVal, value string) error {
	merged := labels
	extra := extraKey + `="` + extraVal + `"`
	if merged == "" {
		merged = extra
	} else {
		merged += "," + extra
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", base, merged, value)
	return err
}

// splitLabels separates `base{k="v"}` into base and the inner label text.
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatValue renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PublishExpvar publishes the registry under one expvar name as a JSON
// snapshot (name → value, histograms as their snapshot struct), so a
// process with an HTTP listener exposes it at /debug/vars alongside the
// runtime's memstats. Publishing the same name twice is an expvar panic,
// so PublishExpvar guards against re-registration and is a no-op on a
// nil registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.expvarView() }))
}

// ExpvarJSON renders the expvar view of the registry (the same JSON the
// published expvar.Func serves). The -metrics dump writes Prometheus
// text (WritePrometheus), not this.
func (r *Registry) ExpvarJSON() ([]byte, error) {
	return json.MarshalIndent(r.expvarView(), "", "  ")
}

// expvarView is the expvar view: metric name → value, histograms as
// their snapshot struct.
func (r *Registry) expvarView() map[string]any {
	out := map[string]any{}
	for _, m := range r.Snapshot() {
		if m.Hist != nil {
			out[m.Name] = m.Hist
		} else {
			out[m.Name] = m.Value
		}
	}
	return out
}
