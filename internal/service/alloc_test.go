package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// TestDecodeAllocBudget holds reading one primary2 result, Decode and
// DecodeBody into a JobResult as a client does, to a committed byte count:
// the measured figure + 25 %. It allocated 448 B when it was set; the
// body is 716 KB, so a copy of it coming back (json.Unmarshal's path
// made two, 1.48 MB a read) fails here. Plain builds only.
func TestDecodeAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the byte budget is checked in plain builds")
	}
	const budget = 560
	metrics, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "primary2-serial.json"))
	if err != nil {
		t.Fatal(err)
	}
	metrics = bytes.TrimSuffix(metrics, []byte("\n"))
	for _, hit := range []bool{false, true} {
		wire, err := Encode(KindResult, JobResult{Key: "preset:primary2@7|serial|p1|s1|pinweight", CacheHit: hit, Metrics: json.RawMessage(metrics)})
		if err != nil {
			t.Fatal(err)
		}
		least := uint64(1 << 62)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := decodeResult(wire)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit != hit || !bytes.Equal(res.Metrics, metrics) {
				t.Fatalf("hit %v: read back hit %v and %d metrics bytes", hit, res.CacheHit, len(res.Metrics))
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("primary2 result (hit %v): %d bytes allocated (budget %d)", hit, least, budget)
		if least > budget {
			t.Errorf("reading a primary2 result (hit %v) allocates %d bytes, budget %d", hit, least, budget)
		}
	}
}
