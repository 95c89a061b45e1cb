package client

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mnemo/internal/server"
	"mnemo/internal/ycsb"
)

// measureOne is a measuring call of one nameless leg, cfg's deployment
// under p: the aggregate of `runs` repetitions.
func measureOne(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement, runs, workers int) (RunStats, error) {
	sts, err := Measure(ctx, w, runs, workers, cfg.Obs, []Leg{{Cfg: cfg, Placement: p}})
	if err != nil {
		return RunStats{}, err
	}
	return sts[0], nil
}

// measureRun is one run of cfg's deployment under p, measured by a
// measuring call.
func measureRun(cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, error) {
	return measureOne(context.Background(), cfg, w, p, 1, 0)
}

// A measuring call over three legs — one of them adaptive — returns
// exactly what three separate one-leg calls return, field for field;
// when two legs fail, the lower leg's error wins under its name, and a
// nameless leg's error carries no prefix.
func TestMeasureMatchesSeparateLegs(t *testing.T) {
	w := adaptiveTestWorkload(0.9)
	static := server.DefaultConfig(server.RedisLike, 7)
	adaptive := static
	adaptive.Adaptive, adaptive.EpochOps = greedySource{}, 4096
	slow := static
	slow.Seed += 7919
	legs := []Leg{
		{Name: "fast", Cfg: static, Placement: server.AllFast()},
		{Name: "adaptive", Cfg: adaptive, Placement: halfFast(w)},
		{Name: "slow", Cfg: slow, Placement: server.AllSlow()},
	}
	ctx := context.Background()
	got, err := Measure(ctx, w, 2, 0, nil, legs)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].MovesApplied == 0 {
		t.Fatalf("adaptive leg never migrated: %+v", got[1])
	}
	for i, leg := range legs {
		want, err := measureOne(ctx, leg.Cfg, w, leg.Placement, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("leg %q diverged from its separate measurement:\n got:  %+v\n want: %+v", leg.Name, got[i], want)
		}
	}

	overflow := static
	overflow.Machine.FastCapacity = 1024
	legs[1] = Leg{Name: "overflow 1", Cfg: overflow, Placement: server.AllFast()}
	legs[2] = Leg{Name: "overflow 2", Cfg: overflow, Placement: server.AllFast()}
	if _, err := Measure(ctx, w, 2, 3, nil, legs); err == nil || !strings.HasPrefix(err.Error(), "overflow 1: ") {
		t.Fatalf("err = %v, want the lower failing leg's, prefixed with its name", err)
	}
	legs[1].Name = ""
	want := "client: repetition 0 (seed 7): "
	if _, err := Measure(ctx, w, 2, 3, nil, legs); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("nameless leg: err = %v, want it unprefixed, starting %q", err, want)
	}
}
