package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Exposition: expvar-style JSON and Prometheus text format, both rendered
// from a point-in-time snapshot so exporters never block writers.

// histJSON is the JSON shape of one histogram.
type histJSON struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

func histToJSON(s HistogramSnapshot) histJSON {
	maxB := 0
	for i, n := range s.Buckets {
		if n > 0 {
			maxB = i
		}
	}
	return histJSON{
		Count: s.Count,
		Sum:   s.Sum,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.5),
		P90:   s.Quantile(0.9),
		P99:   s.Quantile(0.99),
		Max:   BucketUpperBound(maxB),
	}
}

// WriteJSON writes every registered metric as one JSON object, keys
// sorted: counters and gauges as numbers, histograms as
// {count,sum,mean,p50,p90,p99,max} objects.
func (r *Registry) WriteJSON(w io.Writer) error {
	names, view := r.names()
	out := make(map[string]any, len(names))
	for _, n := range names {
		e := view[n]
		switch e.kind {
		case kindCounter:
			out[n] = e.counter.Value()
		case kindGauge:
			out[n] = e.gauge.Value()
		case kindFloatGauge:
			out[n] = e.fgauge.Value()
		case kindFloatGaugeFunc:
			out[n] = e.fgaugeFn()
		case kindHistogram:
			out[n] = histToJSON(e.histogram.Snapshot())
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format: counters as `counter`, gauges as `gauge`, histograms
// as cumulative `le`-labelled bucket series with _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	names, view := r.names()
	for _, n := range names {
		e := view[n]
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, e.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, e.gauge.Value())
		case kindFloatGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, e.fgauge.Value())
		case kindFloatGaugeFunc:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, e.fgaugeFn())
		case kindHistogram:
			err = writePromHistogram(w, n, e.histogram.Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, s HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		// Skip interior empty buckets to keep the output readable; the
		// cumulative counts stay exact because cum carries across.
		if n == 0 && i != histBuckets-1 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, BucketUpperBound(i), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		name, s.Count, name, s.Sum, name, s.Count)
	return err
}

// Handler serves the registry: Prometheus text by default (and under
// ?format=prometheus), JSON under ?format=json or an Accept header asking
// for application/json.
func (r *Registry) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		format := req.URL.Query().Get("format")
		wantJSON := format == "json" ||
			(format == "" && strings.Contains(req.Header.Get("Accept"), "application/json"))
		if wantJSON {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	}
}

// TraceHandler serves a trace ring as plain text, newest page first. With
// ?url=<substring> only spans of matching pages are shown; ?format=json
// dumps the raw events.
func TraceHandler(ring *TraceRing) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		events := ring.Snapshot()
		if filter := req.URL.Query().Get("url"); filter != "" {
			kept := events[:0]
			for _, e := range events {
				if strings.Contains(e.URL, filter) {
					kept = append(kept, e)
				}
			}
			events = kept
		}
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(events)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "tracez: %d span(s) retained (capacity %d, %d total)\n\n",
			len(events), ring.Cap(), ring.Total())
		// Group consecutive spans of one URL so a page's journey reads as a
		// block: events arrive roughly pipeline-ordered per page.
		lastURL := ""
		for _, e := range events {
			if e.URL != lastURL {
				fmt.Fprintf(w, "%s\n", e.URL)
				lastURL = e.URL
			}
			status := "ok"
			if e.Err != "" {
				status = e.Err
			}
			fmt.Fprintf(w, "  #%-8d %-10s %12s  @%s  %s\n",
				e.Seq, e.Stage, time.Duration(e.Dur), time.Unix(0, e.Start).Format("15:04:05.000"), status)
		}
	}
}
