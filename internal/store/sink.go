package store

// Sink receives a copy of every row written to the store it is attached to
// (Store.SetSink): each document, link and redirect row a workspace flush,
// Insert, AddLink or AddRedirect writes, exactly once — never an in-link
// index entry, nor a row a reopen replays. A distributed deployment
// attaches one so the crawl mirrors into remote shard servers while the
// local store keeps feeding the classifier and frontier; the coordinator's
// ingest router is the canonical implementation. Put runs on the writing
// goroutine (a crawl worker's flush, the bootstrap) after the store has
// released the shard's locks, so implementations must be safe for
// concurrent use. The store never calls Flush; its owner does (the
// engine, at the end of each crawl phase).
type Sink interface {
	// Put mirrors one shard's rows of one write. The slices are the
	// store's, reused once Put returns: keep copies, not the slices. A
	// receiver derives a document's terms from its title and text.
	Put(docs []Document, links []Link, redirects []Redirect)
	// Flush forces buffered rows out to their destination and reports the
	// first delivery error since the previous Flush.
	Flush() error
}

// RouteURL returns the partition index url routes to among n partitions.
// For power-of-two n this is exactly the store's own shard routing (FNV-1a
// of the URL masked to the low bits — the same bits a DocID carries), so a
// document lands on the same shard index whether the partitions are local
// store shards or remote shard servers. Non-power-of-two n falls back to a
// modulo of the same hash.
func RouteURL(url string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv32(url)
	if n&(n-1) == 0 {
		return int(h & uint32(n-1))
	}
	return int(h % uint32(n))
}
