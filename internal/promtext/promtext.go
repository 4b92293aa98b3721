// Package promtext renders the Prometheus text exposition format
// (version 0.0.4) of the daemons' /metrics/prom endpoints from one
// descriptor table per daemon. A Desc declares a series once: its
// name, type, help and the path of the value it mirrors in the daemon's
// JSON /metrics document. Render walks the table over that document, so
// the JSON and Prometheus surfaces read the same numbers by
// construction; docs/METRICS.md's exposition tables are the same
// tables rendered as Markdown, checked by a test.
//
// Every rule of the dialect lives here. A leaf whose JSON key ends in
// _ms is divided by 1e3, the one unit conversion point between the
// millisecond JSON wire and the seconds Prometheus expects (see
// stats.Millis for the repo-wide unit policy). Latency histograms are
// exported as summaries (quantile series plus _sum and _count), which
// is what the fixed-bucket streaming histogram supports without
// re-bucketing. A string leaf becomes one-hot series, a bool becomes
// 0/1, and all of a family's lines form one group.
package promtext

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
)

// ContentType is the content type Prometheus scrapers expect for the
// text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Desc declares one exported series. Several Descs may share a Name
// (with the same Kind and Help) to feed one family from several JSON
// leaves, e.g. one per value of a fixed label.
type Desc struct {
	// Name is the family name, unit suffix included.
	Name string
	// Kind is the Prometheus type: "counter", "gauge" or "summary".
	Kind string
	// Help is the family's HELP text.
	Help string
	// Path locates the value in the JSON document by dot-separated
	// keys: "*" iterates a map, labelled by key, and "name[f]" iterates
	// the array under name, labelled by each element's field f.
	Path string
	// Labels names each wildcard's label, in Path order; an entry
	// holding "=" is a fixed pair instead, e.g. `class="4xx"`.
	Labels []string
	// OneHot, for a string leaf, is a label name and the leaf's values:
	// one series per value, 1 on the current one.
	OneHot []string
}

// Counter declares a counter mirroring the JSON leaf at path.
func Counter(name, path, help string) Desc {
	return Desc{Name: name, Kind: "counter", Help: help, Path: path}
}

// Gauge declares a gauge mirroring the JSON leaf at path.
func Gauge(name, path, help string) Desc {
	return Desc{Name: name, Kind: "gauge", Help: help, Path: path}
}

// Summary declares a summary over the histogram snapshot object at
// path: p50/p95/p99 quantiles, _sum and _count.
func Summary(name, path, help string) Desc {
	return Desc{Name: name, Kind: "summary", Help: help, Path: path}
}

// By sets the labels (see Desc.Labels).
func (d Desc) By(labels ...string) Desc { d.Labels = labels; return d }

// Hot makes a string leaf one-hot: one series per value under label.
func (d Desc) Hot(label string, values ...string) Desc {
	d.OneHot = append([]string{label}, values...)
	return d
}

// labelEscaper applies the exposition format's label-value escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Render encodes snapshot as JSON and renders descs over it: each
// family's HELP and TYPE once, then all its samples, families in table
// order. A path absent from the document yields no samples, and a
// family with none is omitted.
func Render(descs []Desc, snapshot any) ([]byte, error) {
	raw, err := json.Marshal(snapshot)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	var w writer
	done := make(map[string]bool)
	for _, fam := range descs {
		if done[fam.Name] {
			continue
		}
		done[fam.Name] = true
		headed := false
		for _, d := range descs {
			if d.Name != fam.Name {
				continue
			}
			if d.Kind != fam.Kind || d.Help != fam.Help {
				return nil, fmt.Errorf("promtext: %s declared with two types or helps", d.Name)
			}
			segs := strings.Split(d.Path, ".")
			walk(doc, segs, nil, func(values []string, v any) {
				if !headed {
					headed = true
					fmt.Fprintf(&w, "# HELP %s %s\n# TYPE %s %s\n", d.Name, d.Help, d.Name, d.Kind)
				}
				w.emit(d, segs[len(segs)-1], values, v)
			})
			if w.err != nil {
				return nil, fmt.Errorf("promtext: %s (%s): %w", d.Name, d.Path, w.err)
			}
		}
	}
	return w.Bytes(), nil
}

// walk resolves segs under node, calling fn with the wildcard values
// of every leaf reached.
func walk(node any, segs, values []string, fn func([]string, any)) {
	if len(segs) == 0 {
		fn(values, node)
		return
	}
	seg, rest := segs[0], segs[1:]
	obj, _ := node.(map[string]any)
	switch name, field, isArray := strings.Cut(strings.TrimSuffix(seg, "]"), "["); {
	case seg == "*":
		// Numeric keys (fan-out window counts) sort by value.
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b string) int {
			x, errX := strconv.Atoi(a)
			y, errY := strconv.Atoi(b)
			if errX == nil && errY == nil {
				return x - y
			}
			return strings.Compare(a, b)
		})
		for _, k := range keys {
			walk(obj[k], rest, append(values, k), fn)
		}
	case isArray:
		arr, _ := obj[name].([]any)
		for _, el := range arr {
			key, _ := el.(map[string]any)[field].(string)
			walk(el, rest, append(values, key), fn)
		}
	default:
		if child, ok := obj[seg]; ok {
			walk(child, rest, values, fn)
		}
	}
}

// writer accumulates an exposition document and its first error.
type writer struct {
	bytes.Buffer
	err error
}

// emit writes the samples of d's leaf v, found under JSON key leaf,
// given the path's wildcard values.
func (w *writer) emit(d Desc, leaf string, values []string, v any) {
	var labels []string
	for _, l := range d.Labels {
		if !strings.Contains(l, "=") {
			l += `="` + labelEscaper.Replace(values[0]) + `"`
			values = values[1:]
		}
		labels = append(labels, l)
	}
	switch h, _ := v.(map[string]any); {
	case d.Kind == "summary":
		w.sample(d.Name, append(labels, `quantile="0.5"`), "p50_ms", h["p50_ms"])
		w.sample(d.Name, append(labels, `quantile="0.95"`), "p95_ms", h["p95_ms"])
		w.sample(d.Name, append(labels, `quantile="0.99"`), "p99_ms", h["p99_ms"])
		w.sample(d.Name+"_sum", labels, "sum_ms", h["sum_ms"])
		w.sample(d.Name+"_count", labels, "count", h["count"])
	case len(d.OneHot) > 0:
		for _, val := range d.OneHot[1:] {
			w.sample(d.Name, append(labels, d.OneHot[0]+`="`+val+`"`), "", v == val)
		}
	default:
		w.sample(d.Name, labels, leaf, v)
	}
}

// sample writes one line, name{labels} value, converting the JSON leaf
// v found under key: a number under a key ending in _ms from
// milliseconds to seconds, a bool to 0 or 1.
func (w *writer) sample(name string, labels []string, key string, v any) {
	var f float64
	switch v := v.(type) {
	case float64:
		f = v
		if strings.HasSuffix(key, "_ms") {
			f = v / 1e3
		}
	case bool:
		if v {
			f = 1
		}
	default:
		w.err = cmp.Or(w.err, fmt.Errorf("%s is %T, not a number", key, v))
		return
	}
	w.WriteString(name)
	if len(labels) > 0 {
		w.WriteString("{" + strings.Join(labels, ",") + "}")
	}
	w.WriteString(" " + strconv.FormatFloat(f, 'g', -1, 64) + "\n")
}

// Handler serves the exposition of descs over the document snapshot
// returns.
func Handler(descs []Desc, snapshot func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		body, err := Render(descs, snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		_, _ = w.Write(body)
	}
}
