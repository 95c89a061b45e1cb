package experiments

import (
	"bytes"
	"strings"
	"testing"

	"mnemo/internal/obs"
	"mnemo/internal/server"
)

func TestClusterSweep(t *testing.T) {
	r, err := ClusterSweep(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards != clusterDefaultShards {
		t.Fatalf("shards = %d, want default %d", r.Shards, clusterDefaultShards)
	}
	if len(r.PerShard) != r.Shards {
		t.Fatalf("per-shard rows = %d, want %d", len(r.PerShard), r.Shards)
	}
	// The layout must cover the dataset and trace exactly once.
	var keys, fastKeys, requests int
	var bytesTotal, fastBytes int64
	for _, row := range r.PerShard {
		keys += row.Keys
		fastKeys += row.FastKeys
		requests += row.Requests
		bytesTotal += row.Bytes
		fastBytes += row.FastBytes
		if row.FastBytes > r.FastBytesPerShard {
			t.Fatalf("shard %d fast bytes %d exceed reported max %d", row.Shard, row.FastBytes, r.FastBytesPerShard)
		}
	}
	if keys != Quick.Keys {
		t.Errorf("keys across shards = %d, want %d", keys, Quick.Keys)
	}
	if requests != Quick.Requests {
		t.Errorf("requests across shards = %d, want %d", requests, Quick.Requests)
	}
	if bytesTotal != r.TotalBytes {
		t.Errorf("bytes across shards = %d, want %d", bytesTotal, r.TotalBytes)
	}
	if fastKeys != r.Advice.Point.KeysInFast {
		t.Errorf("fast keys across shards = %d, want advised %d", fastKeys, r.Advice.Point.KeysInFast)
	}
	if fastBytes != r.Advice.Point.FastBytes {
		t.Errorf("fast bytes across shards = %d, want advised %d", fastBytes, r.Advice.Point.FastBytes)
	}
	if r.HotShardSpread < 2 {
		t.Errorf("hot-set spread %d of %d shards — hot keys collapsed onto one shard", r.HotShardSpread, r.Shards)
	}
	if r.Measured.Requests != Quick.Requests {
		t.Errorf("measured requests = %d, want %d", r.Measured.Requests, Quick.Requests)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Cluster sweep", "per shard", "Per-shard layout", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestClusterSweepHonorsScaleShards(t *testing.T) {
	s := Quick
	s.Shards = 2
	r, err := ClusterSweep(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards != 2 || len(r.PerShard) != 2 {
		t.Fatalf("shards = %d rows = %d, want 2", r.Shards, len(r.PerShard))
	}
}

// TestMeasuringCallsPriceFromTheStream pins that the experiments which
// once replayed outside a measuring call — the cluster sweep's advised
// placement check and Table IV's X-Mem and Tahoe executions — price
// every request they serve from a shared LLC stream, none by a private
// walker.
func TestMeasuringCallsPriceFromTheStream(t *testing.T) {
	for _, exp := range []struct {
		name string
		run  func(Scale) error
	}{
		{"cluster-sweep", func(s Scale) error { _, err := ClusterSweep(s, 1); return err }},
		{"table4", func(s Scale) error { _, err := Table4(s, 1); return err }},
	} {
		s := Quick
		s.Obs = obs.NewSink()
		if err := exp.run(s); err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		var ops int64
		for _, e := range server.Engines() {
			ops += s.Obs.Counter(obs.Name("mnemo_server_ops_total", "engine", e.String())).Value()
		}
		if streamed := s.Obs.Counter("mnemo_server_llc_stream_requests_total").Value(); ops == 0 || streamed != ops {
			t.Errorf("%s: %d of %d requests priced from an LLC stream, want all", exp.name, streamed, ops)
		}
	}
}
