package artifact

import "repro/internal/cache"

// SaveAliasRecord writes an alias record for h under workloadKey that
// names holder, any identity string, as its body: the one way to forge
// records the store itself never writes.
func (s *Store) SaveAliasRecord(workloadKey string, h cache.HierarchyConfig, holder string, n int64, st cache.Stats) error {
	_, err := s.save(KindMemPlane, memPlaneIdentity(workloadKey, h), []section{
		{"alias", raw(encodeAlias(n, holder))},
		{"stats", raw(encodeCacheStats(st))},
	})
	return err
}

// MemPlaneIdentity and BranchPlaneIdentity expose the plane key
// preimages to the external tests.
var (
	MemPlaneIdentity    = memPlaneIdentity
	BranchPlaneIdentity = branchPlaneIdentity
)
