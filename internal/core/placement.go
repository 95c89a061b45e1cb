package core

import (
	"fmt"

	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// PlacementEngine materializes a chosen curve point as a static key
// placement and, optionally, populates a live deployment with the actual
// dataset (paper §IV, component 4 — the only step that needs the real
// data rather than the workload descriptor). Mnemo produces static
// allocations only; there is no dynamic migration.
type PlacementEngine struct{}

// PlacementFor builds the index-keyed placement that pins the first
// point.KeysInFast keys of the ordering to FastMem and leaves the rest
// on SlowMem. The ordering must cover the dataset (Session.Analyze
// checks every ordering a policy returns); an Index outside the
// ordering's range is an error.
func (PlacementEngine) PlacementFor(ord Ordering, point CurvePoint) (server.Placement, error) {
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

// Populate loads the dataset into a fresh deployment under the placement
// for the chosen point, returning the ready-to-serve deployment.
func (pe PlacementEngine) Populate(cfg server.Config, w *ycsb.Workload, ord Ordering, point CurvePoint) (*server.Deployment, error) {
	p, err := pe.PlacementFor(ord, point)
	if err != nil {
		return nil, err
	}
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, p); err != nil {
		return nil, fmt.Errorf("core: populating placement: %w", err)
	}
	return d, nil
}
