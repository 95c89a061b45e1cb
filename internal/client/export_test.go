package client

// DeleteDense exposes the matrix's capture-shaped trace builder to the
// external test package.
var DeleteDense = deleteDense

// EngineWalks reports how many member deployments the measuring calls
// have loaded, and how many trace replays — engine walks — the member
// deployments have served.
func EngineWalks() (loaded, walked int64) { return loads.Load(), walks.Load() }
