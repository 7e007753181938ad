package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// maxRequestBody bounds a submit body (inline circuits included).
const maxRequestBody = 16 << 20

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/jobs   submit a job (Envelope kind job.submit); blocks for
//	                the result, or streams per-stage progress as SSE
//	                when the client sends Accept: text/event-stream
//	GET  /v1/stats  counter snapshot (Envelope kind stats)
//	GET  /healthz   liveness + drain state, for load balancers
//
// Backpressure is status-coded: 429 with Retry-After when the queue is
// full, 503 while draining, 400 for invalid specs — all carrying an
// error envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalid, fmt.Sprintf("reading body: %v", err))
		return
	}
	if len(body) > maxRequestBody {
		writeError(w, http.StatusRequestEntityTooLarge, CodeInvalid, "request body exceeds the 16 MiB limit")
		return
	}
	env, err := Decode(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalid, err.Error())
		return
	}
	var spec JobSpec
	if err := env.DecodeBody(KindJob, &spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalid, err.Error())
		return
	}

	ticket, err := s.Submit(r.Context(), spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}

	if wantsSSE(r) {
		s.streamJob(w, r, ticket)
		return
	}

	res, err := ticket.Wait(r.Context())
	if err != nil {
		writeOutcomeError(w, err)
		return
	}
	writeEnvelope(w, http.StatusOK, KindResult, res)
}

// streamJob writes the job's progress events as SSE, ending with a
// result (or error) event. Events are envelopes, one per SSE data line.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, t *Ticket) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, CodeInternal, "response writer cannot stream")
		t.Release()
		return
	}
	events, unsubscribe := t.Subscribe()
	defer unsubscribe()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		select {
		case ev, ok := <-events:
			if !ok {
				// Subscribe on an already-finished job hands back a closed
				// channel; a nil channel blocks forever, leaving t.Done().
				events = nil
				continue
			}
			writeSSE(w, fl, KindProgress, ev)
		case <-t.Done():
			// Drain whatever progress is still buffered before the final
			// event, so a fast job's timeline is not truncated.
		drain:
			for events != nil {
				select {
				case ev, ok := <-events:
					if !ok {
						break drain
					}
					writeSSE(w, fl, KindProgress, ev)
				default:
					break drain
				}
			}
			res, err := t.Wait(r.Context())
			if err != nil {
				writeSSE(w, fl, KindError, WireError{Code: outcomeCode(err), Message: err.Error()})
				return
			}
			writeSSE(w, fl, KindResult, res)
			return
		case <-r.Context().Done():
			// Client disconnected: release interest (possibly cancelling
			// the computation) and stop streaming.
			t.Release()
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeEnvelope(w, http.StatusOK, KindStats, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		// Draining is the planned way out of a load balancer's rotation.
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// wantsSSE reports whether the client asked for an event stream.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// writeSubmitError maps an admission error onto its backpressure status.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, CodeOverloaded, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, CodeDraining, err.Error())
	case errors.Is(err, ErrInvalidJob):
		writeError(w, http.StatusBadRequest, CodeInvalid, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// writeOutcomeError maps a finished job's failure onto a status code.
func writeOutcomeError(w http.ResponseWriter, err error) {
	switch outcomeCode(err) {
	case CodeCancelled:
		// 499-style: the client (or the drain) cancelled; 503 tells a
		// well-behaved client the job may be retried elsewhere.
		writeError(w, http.StatusServiceUnavailable, CodeCancelled, err.Error())
	case CodeInvalid:
		writeError(w, http.StatusBadRequest, CodeInvalid, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

func outcomeCode(err error) string {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return CodeCancelled
	case errors.Is(err, ErrInvalidJob):
		return CodeInvalid
	default:
		return CodeInternal
	}
}

// writeEnvelope writes one envelope and a newline, Content-Length set, as
// the whole response: a cached result's metrics go out of the cache's slice.
func writeEnvelope(w http.ResponseWriter, status int, kind string, body any) {
	head, mid, tail, err := pieces(kind, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(mid)+len(tail)))
	w.WriteHeader(status)
	w.Write(head)
	w.Write(mid)
	w.Write(tail)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeEnvelope(w, status, KindError, WireError{Code: code, Message: msg})
}

// writeSSE writes one envelope as an SSE event named by its kind.
func writeSSE(w http.ResponseWriter, fl http.Flusher, kind string, body any) {
	head, mid, tail, err := pieces(kind, body)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s", kind, head)
	w.Write(mid)
	w.Write(append(tail, '\n'))
	fl.Flush()
}
