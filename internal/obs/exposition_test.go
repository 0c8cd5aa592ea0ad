package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWriteToFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("rptcn_http_requests_total", "Total HTTP requests.", L("path", "/healthz"), L("code", "200")).Add(7)
	r.Gauge("rptcn_http_in_flight", "In-flight requests.").Set(2)
	var sb strings.Builder
	n, err := r.WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if int64(len(out)) != n {
		t.Fatalf("WriteTo returned %d, wrote %d bytes", n, len(out))
	}
	wantLines := []string{
		"# HELP rptcn_http_requests_total Total HTTP requests.",
		"# TYPE rptcn_http_requests_total counter",
		`rptcn_http_requests_total{code="200",path="/healthz"} 7`,
		"# TYPE rptcn_http_in_flight gauge",
		"rptcn_http_in_flight 2",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
	}
	// Labels must be sorted by key regardless of registration order.
	if strings.Contains(out, `{path=`) {
		t.Fatalf("labels not canonically sorted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", L("msg", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `msg="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped: %s", sb.String())
	}
}

func TestHandlerServesTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("up", "").Inc()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "up 1") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

func TestLoggerTagsComponent(t *testing.T) {
	var sb strings.Builder
	defer baseLogger.Store(baseLogger.Swap(NewLogger(&sb, 0)))
	Logger("train").Info("epoch done", "epoch", 3)
	out := sb.String()
	if !strings.Contains(out, "component=train") || !strings.Contains(out, "epoch=3") {
		t.Fatalf("log line = %q", out)
	}
}
