package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
)

// nopResponse is a ResponseWriter that keeps nothing of the body but its
// length, so what a handler allocates is all that is measured.
type nopResponse struct {
	header http.Header
	status int
	n      int
}

func (w *nopResponse) Header() http.Header         { return w.header }
func (w *nopResponse) WriteHeader(status int)      { w.status = status }
func (w *nopResponse) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestHitAllocBudget holds one primary2 cache hit through the HTTP handler,
// from the request to the last byte written, to a committed byte count:
// the measured figure + 25 %. A hit allocated 2 560 B when it was set,
// request parsing included; the response is 716 KB, so a copy of the
// cached metrics coming back, or the marshal of the whole result that the
// frame replaced (1.48 MB a response), fails here. Plain builds only: the
// race runtime allocates on its own.
func TestHitAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the byte budget is checked in plain builds")
	}
	const budget = 3_200
	srv := startServer(t, Config{Workers: 1})
	handler := srv.Handler()
	body, err := Encode(KindJob, JobSpec{Preset: "primary2", Algo: "serial", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(1 << 62)
	for i := range 5 { // a miss that fills the cache, a warm-up hit, three measured
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		w := &nopResponse{header: http.Header{}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		handler.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		if w.status != http.StatusOK || w.header.Get("Content-Length") != strconv.Itoa(w.n) {
			t.Fatalf("HTTP %d, Content-Length %s, %d bytes written", w.status, w.header.Get("Content-Length"), w.n)
		}
		if i >= 2 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if st := srv.Stats(); st.CacheHits != 4 {
		t.Fatalf("%d cache hits, want 4", st.CacheHits)
	}
	t.Logf("primary2 cache hit: %d bytes allocated (budget %d)", least, budget)
	if least > budget {
		t.Errorf("primary2 cache hit allocates %d bytes, budget %d", least, budget)
	}
}
