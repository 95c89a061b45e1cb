package shard

import (
	"fmt"
	"io"
	"os"

	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

// splitStream partitions a stream-backed parent trace without ever
// materializing it. Pass A counts each shard's requests (the .mtrc
// header declares its total up front); pass B spools each shard's ops —
// remapped to shard-local record indices — into a per-shard temp .mtrc
// file. Each spool is unlinked as soon as it is reopened: the open
// descriptor keeps it readable for the life of the sub-workload and the
// OS reclaims the space when the partition is collected or the process
// exits, so no files are left behind. Sub-streams satisfy the
// TraceStream contract (independent, repeatable iteration), which is
// what lets every repetition or retry of a cluster run replay its slice
// again.
//
// Resident memory is O(records + frame) regardless of trace length —
// the same bound as the unsharded streamed replay.
func splitStream(w *ycsb.Workload, p *Partition, datasets []ycsb.Dataset, local []int32) error {
	shards := p.Shards

	// Pass A: per-shard request counts.
	perShard := make([]int, shards)
	it, err := w.Stream.Frames()
	if err != nil {
		return fmt.Errorf("shard: opening parent stream: %w", err)
	}
	for {
		keys, _, _, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("shard: counting parent stream: %w", err)
		}
		for _, k := range keys {
			perShard[p.Assign[k]]++
		}
	}

	// Pass B: spool each non-empty shard's slice. paths[s] tracks spool
	// files not yet unlinked; on any error every one of them is removed.
	writers := make([]*trace.Writer, shards)
	paths := make([]string, shards)
	fail := func(err error) error {
		for s := range writers {
			if writers[s] != nil {
				writers[s].Close()
			}
			if paths[s] != "" {
				os.Remove(paths[s])
			}
		}
		return err
	}
	for s := 0; s < shards; s++ {
		if len(datasets[s].Records) == 0 {
			continue // recordless shard: no ops can route here
		}
		f, err := os.CreateTemp("", "mnemo-shard-*.mtrc")
		if err != nil {
			return fail(fmt.Errorf("shard: spool file: %w", err))
		}
		paths[s] = f.Name()
		f.Close()
		spec := subSpec(w.Spec, s, len(datasets[s].Records), perShard[s])
		writers[s], err = trace.CreateDataset(paths[s], spec.Name, &datasets[s], uint64(perShard[s]))
		if err != nil {
			return fail(fmt.Errorf("shard: spool writer: %w", err))
		}
	}
	it, err = w.Stream.Frames()
	if err != nil {
		return fail(fmt.Errorf("shard: reopening parent stream: %w", err))
	}
	var k1 [1]uint32
	var d1 [1]uint8
	for {
		keys, kinds, _, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(fmt.Errorf("shard: splitting parent stream: %w", err))
		}
		for i, k := range keys {
			s := p.Assign[k]
			k1[0] = uint32(local[k])
			d1[0] = kinds[i]
			if err := writers[s].Append(k1[:], d1[:]); err != nil {
				return fail(fmt.Errorf("shard: spooling shard %d: %w", s, err))
			}
		}
	}

	for s := 0; s < shards; s++ {
		p.Subs[s].Requests = perShard[s]
		if writers[s] == nil {
			p.Subs[s].W = &ycsb.Workload{
				Spec:    subSpec(w.Spec, s, 0, 0),
				Dataset: datasets[s],
			}
			continue
		}
		wr := writers[s]
		writers[s] = nil
		if err := wr.Close(); err != nil {
			return fail(fmt.Errorf("shard: finishing spool %d: %w", s, err))
		}
		f, err := trace.OpenFile(paths[s])
		if err != nil {
			return fail(fmt.Errorf("shard: reopening spool %d: %w", s, err))
		}
		os.Remove(paths[s]) // unlinked; the descriptor keeps it readable
		paths[s] = ""
		p.Subs[s].W = &ycsb.Workload{
			Spec:    subSpec(w.Spec, s, len(datasets[s].Records), perShard[s]),
			Dataset: datasets[s],
			Stream:  f.Stream(),
		}
	}
	return nil
}
