package core

import (
	"fmt"

	"mnemo/internal/server"
)

// PlacementFor is the Placement Engine (paper §IV, component 4): it
// materializes a chosen curve point as the static index-keyed placement
// that pins the first point.KeysInFast keys of the ordering to FastMem
// and leaves the rest on SlowMem. Loading the actual dataset under it is
// the deployment's job (server.Deployment.Load). The ordering must cover
// the dataset (Session.Analyze checks every ordering a policy returns);
// an Index outside the ordering's range is an error.
func PlacementFor(ord Ordering, point CurvePoint) (server.Placement, error) {
	if point.KeysInFast < 0 || point.KeysInFast > len(ord.Keys) {
		return server.Placement{}, fmt.Errorf("core: point places %d keys, ordering has %d",
			point.KeysInFast, len(ord.Keys))
	}
	if point.KeysInFast == len(ord.Keys) {
		return server.AllFast(), nil
	}
	if point.KeysInFast == 0 {
		return server.AllSlow(), nil
	}
	fastIdx := make([]int, point.KeysInFast)
	for i := range fastIdx {
		idx := ord.Keys[i].Index
		if idx < 0 || idx >= len(ord.Keys) {
			return server.Placement{}, fmt.Errorf("core: ordering entry %d (key %q) has index %d outside [0,%d)",
				i, ord.Keys[i].Key, idx, len(ord.Keys))
		}
		fastIdx[i] = idx
	}
	return server.FastIndices(fastIdx, len(ord.Keys)), nil
}
