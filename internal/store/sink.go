package store

// Sink receives a copy of every row written to a crawl store. The crawler
// tees its writes through one (see crawler.Config.Sink) so a distributed
// deployment can mirror the crawl into remote shard-server stores while
// the local store keeps feeding the classifier and frontier — the
// coordinator's ingest router is the canonical implementation. Calls
// happen on crawler worker goroutines; implementations must be safe for
// concurrent use. Flush forces buffered rows out and reports the first
// delivery error since the previous Flush.
type Sink interface {
	// PutDoc mirrors one stored document; the receiver derives its terms
	// from its title and text.
	PutDoc(d Document)
	// PutLink mirrors one link row.
	PutLink(l Link)
	// PutRedirect mirrors one redirect row.
	PutRedirect(r Redirect)
	// Flush forces buffered rows out to their destination.
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
