package search

// Test-only exports for the external search_test package, which needs the
// equivalence fixtures next to packages (rpc, portal) that import search.

func EquivQueries() []Query { return equivQueries() }

var (
	FillTierWave     = fillTierWave
	OpenSearchTiered = openSearchTiered
	FreezeAllShards  = freezeAllShards
)
