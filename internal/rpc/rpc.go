// Package rpc is the wire layer between the coordinator and its shard
// servers: versioned JSON request/response structs over plain HTTP, a
// Server that exposes one store partition (search.Partition + ingest), and
// a Client with per-attempt timeouts, hedged retry, and a circuit breaker
// per server address.
//
// The protocol (see DESIGN.md "Distributed scatter-gather" for the full
// spec) is deliberately boring: every endpoint lives under /rpc/v1/, every
// body carries a `v` field, and all floats cross the wire as JSON numbers
// — Go's encoding/json emits float64 in shortest round-trip form, so the
// query-plan weights and returned scores survive the network bit-exactly.
// Unknown protocol versions, and bodies with fields the version does not
// define, are rejected with 400 rather than guessed at.
//
// Endpoints:
//
//	GET  /rpc/v1/ping    liveness + epochs + installed stats version
//	GET  /rpc/v1/stats   pin a snapshot, return vocabulary + integer df +
//	                     largest confidence
//	POST /rpc/v1/global  install merged df + global doc count (new version)
//	GET  /rpc/v1/links   dump link edges for global HITS
//	POST /rpc/v1/auth    install global authority scores for a version
//	POST /rpc/v1/search  one-round-trip query: local maxima + K-skyband rows
//	POST /rpc/v1/insert  ingest a routed batch of rows (one flush/fsync)
//
// The coordinator asks each shard once per query, on /rpc/v1/search. The
// two-phase pair below predates it and is kept only because the
// benchmark's traced replay still times it; nothing else calls it, and it
// goes when the benchmark stops calling it — no coordinator or operator
// may rely on it:
//
//	POST /rpc/v1/score   query phase 1: local component maxima
//	POST /rpc/v1/gather  query phase 2: top-K hits under global maxima
package rpc

import (
	"fmt"
	"time"

	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
)

// ProtoVersion is the wire protocol generation this package speaks. A
// server rejects a request carrying a different non-zero `v`, and a client
// refuses a response whose `v` differs (*ProtoError). Version 2 took
// term vectors out of the insert body, so a coordinator and a shard server
// of different generations fail each other's requests rather than store a
// document without its terms.
const ProtoVersion = 2

// Endpoint paths, exported so client, server, and tests agree by
// construction.
const (
	// PathPing is the liveness/identity endpoint.
	PathPing = "/rpc/v1/ping"
	// PathStats pins a partition snapshot and returns its df stats.
	PathStats = "/rpc/v1/stats"
	// PathGlobal installs merged global corpus statistics.
	PathGlobal = "/rpc/v1/global"
	// PathLinks dumps the partition's link edges.
	PathLinks = "/rpc/v1/links"
	// PathAuth installs global authority scores.
	PathAuth = "/rpc/v1/auth"
	// PathSearch answers a query in one round trip.
	PathSearch = "/rpc/v1/search"
	// PathScore runs query phase 1 (kept only for the benchmark replay).
	PathScore = "/rpc/v1/score"
	// PathGather runs query phase 2 (kept only for the benchmark replay).
	PathGather = "/rpc/v1/gather"
	// PathInsert applies an ingest batch.
	PathInsert = "/rpc/v1/insert"
)

// Error codes carried by ErrorResponse.Code.
const (
	// CodeBadRequest marks malformed bodies or protocol-version mismatches.
	CodeBadRequest = "bad_request"
	// CodeVersionConflict marks a query phase addressed at a global-stats
	// version the partition no longer serves; the coordinator resyncs.
	CodeVersionConflict = "version_conflict"
	// CodeAuthNotReady marks an authority-weighted query arriving before
	// the coordinator pushed authority scores for the version.
	CodeAuthNotReady = "auth_not_ready"
	// CodeInternal marks a server-side failure.
	CodeInternal = "internal"
)

// PingResponse answers PathPing: liveness plus enough identity for the
// coordinator's prober to decide whether a stats resync is due.
type PingResponse struct {
	// V is the protocol version.
	V int `json:"v"`
	// Ready mirrors the server's readiness gate (false while draining).
	Ready bool `json:"ready"`
	// NumDocs is the partition's live document count.
	NumDocs int `json:"num_docs"`
	// Durable is the partition's durable (fsynced) document count; 0 for
	// purely in-memory stores.
	Durable int64 `json:"durable"`
	// Epochs is the store's per-shard mutation epoch vector.
	Epochs []int64 `json:"epochs"`
	// StatsVersion is the installed global-stats version ("" before the
	// first sync).
	StatsVersion string `json:"stats_version"`
}

// StatsResponse answers PathStats with the partition's pinned corpus
// statistics (see search.PartitionStats).
type StatsResponse struct {
	// V is the protocol version.
	V int `json:"v"`
	// Stats is the pinned vocabulary, integer df, and epoch vector.
	Stats search.PartitionStats `json:"stats"`
}

// GlobalRequest pushes the coordinator's merged corpus statistics to one
// partition: the total document count across all partitions and the merged
// df restricted to this partition's vocabulary (terms absent from a
// partition never score there, so shipping the full global vocabulary
// would be wasted bytes).
type GlobalRequest struct {
	// V is the protocol version.
	V int `json:"v"`
	// Version is the coordinator-assigned global-stats version.
	Version string `json:"version"`
	// Pin echoes the pin token of the Stats pull this push was merged
	// from; the server rejects a mismatch (409) rather than install a view
	// over a snapshot the coordinator never saw.
	Pin string `json:"pin"`
	// TotalDocs is the global live document count.
	TotalDocs int `json:"total_docs"`
	// Terms and DF are parallel: DF[i] is the merged global document
	// frequency of Terms[i].
	Terms []string `json:"terms"`
	// DF holds the merged integer document frequencies.
	DF []int `json:"df"`
}

// GlobalResponse acknowledges a GlobalRequest.
type GlobalResponse struct {
	// V is the protocol version.
	V int `json:"v"`
}

// LinksResponse answers PathLinks with the partition's link edges as
// parallel From/To arrays (anchors are not needed for HITS).
type LinksResponse struct {
	// V is the protocol version.
	V int `json:"v"`
	// From and To are parallel edge endpoint arrays.
	From []string `json:"from"`
	// To holds the target URL of each edge.
	To []string `json:"to"`
}

// AuthRequest pushes globally computed HITS authority scores for one
// global-stats version.
type AuthRequest struct {
	// V is the protocol version.
	V int `json:"v"`
	// Version is the global-stats version the scores belong to.
	Version string `json:"version"`
	// URLs and Scores are parallel.
	URLs []string `json:"urls"`
	// Scores holds the authority value of URLs[i].
	Scores []float64 `json:"scores"`
}

// AuthResponse acknowledges an AuthRequest.
type AuthResponse struct {
	// V is the protocol version.
	V int `json:"v"`
}

// SearchRequest runs one query against one partition in a single round
// trip.
type SearchRequest struct {
	// V is the protocol version.
	V int `json:"v"`
	// Version pins the global-stats generation to score in.
	Version string `json:"version"`
	// Plan is the coordinator-compiled query plan.
	Plan search.Plan `json:"plan"`
}

// SearchResponse returns the partition's counts, local maxima and
// K-skyband rows as parallel arrays (see search.Skyband).
type SearchResponse struct {
	// V is the protocol version.
	V int `json:"v"`
	search.Skyband
}

// ScoreRequest runs query phase 1 against one partition. The coordinator
// no longer sends it; it stays for the benchmark's traced replay.
type ScoreRequest struct {
	// V is the protocol version.
	V int `json:"v"`
	// Version pins the global-stats generation both phases must score in.
	Version string `json:"version"`
	// Plan is the coordinator-compiled query plan.
	Plan search.Plan `json:"plan"`
}

// ScoreResponse returns the partition's phase-1 partials.
type ScoreResponse struct {
	// V is the protocol version.
	V int `json:"v"`
	// Stats holds local candidate/survivor counts and component maxima.
	Stats search.ScoreStats `json:"stats"`
}

// GatherRequest runs query phase 2 with the globally reduced maxima. Like
// ScoreRequest, it stays only for the benchmark's traced replay.
type GatherRequest struct {
	// V is the protocol version.
	V int `json:"v"`
	// Version pins the same global-stats generation phase 1 used.
	Version string `json:"version"`
	// Plan is the same plan phase 1 ran.
	Plan search.Plan `json:"plan"`
	// MaxCos/MaxConf/MaxAuth are the component maxima reduced across every
	// partition's phase-1 answer.
	MaxCos  float64 `json:"max_cos"`
	MaxConf float64 `json:"max_conf"`
	MaxAuth float64 `json:"max_auth"`
}

// Hit is one ranked result on the wire: the document fields a result list
// renders plus the combined score and its normalized components.
type Hit struct {
	// URL is the document URL (the global tie-break key).
	URL string `json:"url"`
	// Title is the document title.
	Title string `json:"title"`
	// Topic is the assigned topic path.
	Topic string `json:"topic"`
	// Score is the combined ranking score.
	Score float64 `json:"score"`
	// Cosine, Confidence, and Authority are the normalized components.
	Cosine     float64 `json:"cosine"`
	Confidence float64 `json:"confidence"`
	Authority  float64 `json:"authority"`
}

// GatherResponse returns the partition's top-K hits, already normalized by
// the global maxima and ordered by the score/URL tie-break.
type GatherResponse struct {
	// V is the protocol version.
	V int `json:"v"`
	// Hits is the partition's bounded result list.
	Hits []Hit `json:"hits"`
}

// InsertRequest applies one routed ingest batch: documents, link rows, and
// redirects that hash to this partition, applied through a workspace so
// the whole batch is one bulk load and (on a tiered store) one WAL fsync.
type InsertRequest struct {
	// V is the protocol version.
	V int `json:"v"`
	// Docs are document rows without their term vectors (store.Document
	// encodes none): the server derives each from its title and text.
	Docs []store.Document `json:"docs,omitempty"`
	// Links are link rows whose source URL routes here.
	Links []store.Link `json:"links,omitempty"`
	// Redirects are redirect rows whose source URL routes here.
	Redirects []store.Redirect `json:"redirects,omitempty"`
}

// InsertResponse acknowledges an ingest batch with the partition's
// resulting counters — the coordinator tracks acked-durable per server
// from Durable.
type InsertResponse struct {
	// V is the protocol version.
	V int `json:"v"`
	// NumDocs is the partition's live document count after the batch.
	NumDocs int `json:"num_docs"`
	// Durable is the durable document count after the batch (0 in-memory).
	Durable int64 `json:"durable"`
	// Epochs is the per-shard epoch vector after the batch.
	Epochs []int64 `json:"epochs"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	// V is the protocol version.
	V int `json:"v"`
	// Code classifies the failure (Code* constants).
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
	// Have carries the server's current global-stats version on
	// CodeVersionConflict, so the coordinator can log the skew.
	Have string `json:"have,omitempty"`
}

// ConflictError is the client-side form of a 409: the server is alive but
// disagrees about state (stats version skew, authority not yet pushed).
// The coordinator reacts with a stats resync and a single retry, never
// with the breaker.
type ConflictError struct {
	// Code is CodeVersionConflict or CodeAuthNotReady.
	Code string
	// Have is the server's current global-stats version (may be empty).
	Have string
}

// Error implements the error interface.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("rpc: conflict %s (server has version %q)", e.Code, e.Have)
}

// BreakerOpenError reports a call short-circuited by the client's circuit
// breaker: the server address failed enough consecutive calls that the
// client refuses to send more until the cool-down elapses.
type BreakerOpenError struct {
	// Addr is the server base address.
	Addr string
	// RetryIn is the remaining cool-down.
	RetryIn time.Duration
}

// Error implements the error interface.
func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("rpc: breaker open for %s (retry in %s)", e.Addr, e.RetryIn)
}

// ProtoError reports a response from a server of another protocol
// generation. It is not retried: the server is healthy, but its answers
// cannot be trusted to mean what this client expects, so the coordinator
// treats it as missing.
type ProtoError struct {
	// Addr is the server base address.
	Addr string
	// Have is the protocol version the response named.
	Have int
}

// Error implements the error interface.
func (e *ProtoError) Error() string {
	return fmt.Sprintf("rpc: %s answers protocol version %d, this client speaks %d", e.Addr, e.Have, ProtoVersion)
}

// StatusError reports an HTTP-level failure that is not a conflict: a 4xx
// protocol bug or a 5xx server failure.
type StatusError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the server's error code, when a body was parseable.
	Code string
	// Message is the server's error message.
	Message string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	return fmt.Sprintf("rpc: status %d %s: %s", e.Status, e.Code, e.Message)
}
