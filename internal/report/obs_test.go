package report

import (
	"bytes"
	"strings"
	"testing"

	"mnemo/internal/obs"
)

func populatedSink() *obs.Sink {
	sink := obs.NewSink()
	sink.Counter("mnemo_client_runs_total").Add(4)
	sink.Gauge("mnemo_pool_workers_busy").Set(0)
	sink.Histogram("mnemo_stage_wall_seconds", []float64{0.01, 0.1, 1}).Observe(0.05)
	span := sink.StartSpan("measure")
	span.End(0)
	sink.Event(obs.EventCacheHit, "measure", "baselines", 0)
	return sink
}

func TestWriteObsSection(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteObsSection(&buf, populatedSink()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== run timeline ==",
		"span_started",
		"span_finished",
		"cache_hit",
		"== metrics ==",
		"mnemo_client_runs_total",
		"mnemo_stage_wall_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("section missing %q:\n%s", want, out)
		}
	}
}

func TestWriteObsSectionNilSink(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteObsSection(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil sink rendered %q", buf.String())
	}
}

func TestObsTimelineElision(t *testing.T) {
	sink := obs.NewSink()
	for i := 0; i < maxTimelineEvents+10; i++ {
		sink.Event(obs.EventMeasureStart, "client", "again", 0)
	}
	var buf bytes.Buffer
	if err := ObsTimeline(&buf, sink); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "10 more events elided") {
		t.Errorf("missing elision summary:\n%s", buf.String())
	}
}

func TestObsHTMLSection(t *testing.T) {
	sec, ok := ObsHTMLSection(populatedSink())
	if !ok {
		t.Fatal("populated sink produced no section")
	}
	if sec.Heading != "Observability" || sec.Table == nil {
		t.Fatalf("unexpected section: %+v", sec)
	}
	if len(sec.Paragraphs) == 0 || !strings.Contains(sec.Paragraphs[0], "journal events") {
		t.Errorf("missing journal summary paragraph: %v", sec.Paragraphs)
	}
	if _, ok := ObsHTMLSection(nil); ok {
		t.Error("nil sink produced a section")
	}
}
