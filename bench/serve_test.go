package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestCheckedHandler: a GET URL whose answer changes is reported once
// per change, POSTs and failed answers are not compared, and request
// spans are recorded only while a tracer is installed.
func TestCheckedHandler(t *testing.T) {
	answer := map[string]string{"/v1/predict?bench=a": "1", "/v1/explore?bench=a": "x"}
	ch := &checkedHandler{seen: map[string][32]byte{}, h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			_, _ = w.Write([]byte(r.URL.RawQuery)) // a different body every time
			return
		}
		if r.URL.Query().Get("fail") != "" {
			http.Error(w, r.URL.Query().Get("fail"), http.StatusTooManyRequests)
			return
		}
		_, _ = w.Write([]byte(answer[r.URL.RequestURI()]))
	})}
	send := func(method, url string) {
		ch.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, url, strings.NewReader("")))
	}
	send("GET", "/v1/predict?bench=a")
	send("GET", "/v1/explore?bench=a")
	send("POST", "/v1/workloads?n=1")
	send("POST", "/v1/workloads?n=2")
	send("GET", "/v1/predict?bench=a&fail=1")
	send("GET", "/v1/predict?bench=a&fail=2")
	if bad := ch.changed(); len(bad) != 0 {
		t.Fatalf("stable answers reported as changed: %v", bad)
	}

	tr := newTracer()
	parent := tr.begin("op", -1, -1)
	ch.trace(tr, parent)
	answer["/v1/predict?bench=a"] = "2"
	send("GET", "/v1/predict?bench=a")
	send("GET", "/v1/predict?bench=a")
	send("POST", "/v1/workloads?n=3")
	ch.trace(nil, -1)
	send("GET", "/v1/explore?bench=a")
	if bad := ch.changed(); len(bad) != 1 || bad[0] != "/v1/predict?bench=a" {
		t.Errorf("changed = %v, want the predict URL once", bad)
	}
	if bad := ch.changed(); len(bad) != 0 {
		t.Errorf("changed twice: %v", bad)
	}
	var names []string
	for _, s := range tr.snapshot()[1:] {
		if s.Parent != parent {
			t.Errorf("span %+v not under its op", s)
		}
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, " "), "service.handler.predict service.handler.predict service.handler.ingest"; got != want {
		t.Errorf("spans %q, want %q", got, want)
	}
}
