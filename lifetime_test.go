package mnemo

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestDroppedWorkloadIsCollected: nothing in the process keeps a workload
// alive once its caller drops it — not the shard partitions, packed
// encodings and other artifacts derived from its trace, not any cache a
// measuring call fills. Each row profiles (and, for the adaptive policy,
// measures adaptively, or tunes) a test-owned workload, drops every
// reference to it and its results, and requires the workload's finalizer
// to run within a few GC cycles.
func TestDroppedWorkloadIsCollected(t *testing.T) {
	ctx := context.Background()
	type row struct {
		name   string
		stream bool // replay an .mtrc copy of the workload
		run    func(w *Workload) error
	}
	var rows []row
	for _, shards := range []int{0, 4} {
		for _, stream := range []bool{false, true} {
			backing := "mem"
			if stream {
				backing = "mtrc"
			}
			static := Options{Store: RedisLike, Seed: 13, SLO: 0.10, Shards: shards, Policy: "mnemot"}
			adaptive := Options{
				Store: DynamoLike, Seed: 13, SLO: 0.01, Shards: shards,
				Policy: "adaptive-freq", EpochOps: 4096, MigrationCostPerByte: 0.5,
			}
			rows = append(rows,
				row{fmt.Sprintf("shards%d/%s/mnemot", shards, backing), stream, func(w *Workload) error {
					_, err := Profile(w, static)
					return err
				}},
				row{fmt.Sprintf("shards%d/%s/adaptive-freq", shards, backing), stream, func(w *Workload) error {
					rep, err := Profile(w, adaptive)
					if err != nil {
						return err
					}
					_, err = MeasureAdaptive(ctx, w, rep, adaptive)
					return err
				}})
		}
	}
	rows = append(rows, row{"shards4/mem/tune", false, func(w *Workload) error {
		_, err := Tune(ctx, w, Options{Seed: 42, SLO: 0.10, Shards: 4},
			TuneOptions{Budget: 8, SearchSeed: 7, Policies: []string{"mnemot", "knapsack"}})
		return err
	}})

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			done := make(chan struct{})
			func() {
				w := driftAPIWorkload(t)
				if r.stream {
					path := filepath.Join(t.TempDir(), "w.mtrc")
					if err := WriteTrace(w, path); err != nil {
						t.Fatal(err)
					}
					var err error
					if w, err = OpenTrace(path); err != nil {
						t.Fatal(err)
					}
				}
				runtime.SetFinalizer(w, func(*Workload) { close(done) })
				if err := r.run(w); err != nil {
					t.Fatal(err)
				}
			}()
			for i := 0; i < 10; i++ {
				runtime.GC()
				select {
				case <-done:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("workload still reachable after every reference to it was dropped")
		})
	}
}
