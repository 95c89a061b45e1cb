package ycsb

// InstalledTally returns the tally SetAccessTally installed on w, nil
// before one was.
func (w *Workload) InstalledTally() *AccessTally { return w.tallySlot().Load() }
