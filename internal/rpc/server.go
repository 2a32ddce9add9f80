package rpc

// This file is the shard-server side of the wire protocol: a Server wraps
// one store partition plus its search.Partition and serves the /rpc/v1/*
// endpoints. Handlers are thin — decode, validate the protocol version,
// call the partition, encode — so all scoring semantics stay in
// internal/search where the single-process engine shares them.

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"github.com/bingo-search/bingo/internal/daemon"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

// Server-side RPC traffic: request/error counts and latency, plus ingest
// volume (documents and total rows applied through /rpc/v1/insert).
var (
	mSrvRequests   = metrics.NewCounter("rpc_server_requests_total")
	mSrvErrors     = metrics.NewCounter("rpc_server_errors_total")
	mSrvNanos      = metrics.NewHistogram("rpc_server_request_nanos")
	mSrvInsertDocs = metrics.NewCounter("rpc_server_insert_docs_total")
	mSrvInsertRows = metrics.NewCounter("rpc_server_insert_rows_total")
)

// Server exposes one store partition over the wire protocol. It owns the
// partition's search state (a search.Partition) and applies ingest batches
// through workspaces so a batch is one bulk load and one WAL fsync.
// Readiness is a separate gate from serving: a draining server flips Ready
// false (so the coordinator stops selecting it) but keeps answering
// in-flight RPCs until shutdown.
type Server struct {
	daemon.Gate
	st   *store.Store
	part *search.Partition
	mux  *http.ServeMux
}

// NewServer builds a Server over st.
func NewServer(st *store.Store) *Server {
	s := &Server{st: st, part: search.NewPartition(st)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(PathPing, s.handlePing)
	s.mux.HandleFunc(PathStats, s.handleStats)
	s.mux.HandleFunc(PathGlobal, s.handleGlobal)
	s.mux.HandleFunc(PathLinks, s.handleLinks)
	s.mux.HandleFunc(PathAuth, s.handleAuth)
	s.mux.HandleFunc(PathSearch, s.handleSearch)
	s.mux.HandleFunc(PathScore, s.handleScore)
	s.mux.HandleFunc(PathGather, s.handleGather)
	s.mux.HandleFunc(PathInsert, s.handleInsert)
	return s
}

// Handler returns the /rpc/v1/* handler to mount on the process mux.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		mSrvRequests.Inc()
		s.mux.ServeHTTP(w, r)
		mSrvNanos.ObserveSince(start)
	})
}

// Partition returns the server's search partition (tests drive it
// directly).
func (s *Server) Partition() *search.Partition { return s.part }

func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, PingResponse{
		V:            ProtoVersion,
		Ready:        s.Ready(),
		NumDocs:      s.st.NumDocs(),
		Durable:      s.st.DurableDocs(),
		Epochs:       s.st.ShardEpochs(),
		StatsVersion: s.part.Version(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{V: ProtoVersion, Stats: s.part.Stats()})
}

func (s *Server) handleGlobal(w http.ResponseWriter, r *http.Request) {
	var req GlobalRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.part.SetGlobal(req.Version, req.Pin, req.TotalDocs, req.Terms, req.DF); err != nil {
		writePartErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, GlobalResponse{V: ProtoVersion})
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	resp := LinksResponse{V: ProtoVersion}
	s.st.VisitLinks(func(l store.Link) bool {
		resp.From = append(resp.From, l.From)
		resp.To = append(resp.To, l.To)
		return true
	})
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAuth(w http.ResponseWriter, r *http.Request) {
	var req AuthRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.part.SetAuth(req.Version, req.URLs, req.Scores); err != nil {
		writePartErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, AuthResponse{V: ProtoVersion})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decode(w, r, &req) {
		return
	}
	sb, err := s.part.Search(req.Version, &req.Plan)
	if err != nil {
		writePartErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SearchResponse{V: ProtoVersion, Skyband: *sb})
}

// handleScore and handleGather serve the two-phase pair the benchmark's
// traced replay still times; the coordinator uses handleSearch.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req ScoreRequest
	if !decode(w, r, &req) {
		return
	}
	stats, err := s.part.Score(req.Version, &req.Plan)
	if err != nil {
		writePartErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ScoreResponse{V: ProtoVersion, Stats: stats})
}

func (s *Server) handleGather(w http.ResponseWriter, r *http.Request) {
	var req GatherRequest
	if !decode(w, r, &req) {
		return
	}
	hits, err := s.part.Gather(req.Version, &req.Plan, req.MaxCos, req.MaxConf, req.MaxAuth)
	if err != nil {
		writePartErr(w, err)
		return
	}
	resp := GatherResponse{V: ProtoVersion, Hits: make([]Hit, len(hits))}
	for i := range hits {
		resp.Hits[i] = Hit{
			URL:        hits[i].Doc.URL,
			Title:      hits[i].Doc.Title,
			Topic:      hits[i].Doc.Topic,
			Score:      hits[i].Score,
			Cosine:     hits[i].Cosine,
			Confidence: hits[i].Confidence,
			Authority:  hits[i].Authority,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !decode(w, r, &req) {
		return
	}
	rows := len(req.Docs) + len(req.Links) + len(req.Redirects)
	if rows > 0 {
		// One workspace sized past the batch so nothing auto-flushes
		// mid-apply: the whole batch is one bulk load and one fsync.
		ws := s.st.NewWorkspace(rows + 1)
		for i := range req.Docs {
			d := &req.Docs[i]
			d.Terms = textproc.DocTerms(d.Title, d.Text)
			ws.Add(*d)
		}
		for i := range req.Links {
			ws.AddLink(req.Links[i])
		}
		for i := range req.Redirects {
			ws.AddRedirect(req.Redirects[i])
		}
		if err := ws.Flush(); err != nil {
			mSrvErrors.Inc()
			writeErr(w, http.StatusInternalServerError, CodeInternal, err.Error(), "")
			return
		}
	}
	mSrvInsertDocs.Add(int64(len(req.Docs)))
	mSrvInsertRows.Add(int64(rows))
	writeJSON(w, http.StatusOK, InsertResponse{
		V:       ProtoVersion,
		NumDocs: s.st.NumDocs(),
		Durable: s.st.DurableDocs(),
		Epochs:  s.st.ShardEpochs(),
	})
}

// decode parses a JSON request body and enforces the protocol version. A
// field the request type does not define — say, an insert document's
// "Terms" — is a malformed body, not something to drop. It writes the
// error response itself and returns false when the request is unusable.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		mSrvErrors.Inc()
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "malformed request body: "+err.Error(), "")
		return false
	}
	if v := protoOf(dst); v != 0 && v != ProtoVersion {
		mSrvErrors.Inc()
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "unsupported protocol version", "")
		return false
	}
	return true
}

// protoOf extracts the V field from a decoded request.
func protoOf(dst any) int {
	switch m := dst.(type) {
	case *GlobalRequest:
		return m.V
	case *AuthRequest:
		return m.V
	case *SearchRequest:
		return m.V
	case *ScoreRequest:
		return m.V
	case *GatherRequest:
		return m.V
	case *InsertRequest:
		return m.V
	}
	return 0
}

// writePartErr maps partition errors onto wire errors: a plan with bad
// weights and authority scores out of range are a 400, version skew and missing authority are 409 conflicts
// (the coordinator resyncs and retries), everything else is a 500.
func writePartErr(w http.ResponseWriter, err error) {
	mSrvErrors.Inc()
	var ve *search.VersionError
	switch {
	case errors.Is(err, search.ErrBadWeights), errors.Is(err, search.ErrBadAuthority):
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err.Error(), "")
	case errors.As(err, &ve):
		writeErr(w, http.StatusConflict, CodeVersionConflict, err.Error(), ve.Have)
	case errors.Is(err, search.ErrAuthNotReady):
		writeErr(w, http.StatusConflict, CodeAuthNotReady, err.Error(), "")
	case errors.Is(err, search.ErrNoStats), errors.Is(err, search.ErrPinMismatch):
		writeErr(w, http.StatusConflict, CodeVersionConflict, err.Error(), "")
	default:
		writeErr(w, http.StatusInternalServerError, CodeInternal, err.Error(), "")
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeErr(w http.ResponseWriter, status int, code, msg, have string) {
	writeJSON(w, status, ErrorResponse{V: ProtoVersion, Code: code, Message: msg, Have: have})
}
