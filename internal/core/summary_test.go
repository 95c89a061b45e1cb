package core

import (
	"context"
	"encoding/json"
	"testing"

	"mnemo/internal/server"
)

func TestReportSummary(t *testing.T) {
	w := testWorkload(41)
	rep, err := Profile(context.Background(), DefaultConfig(server.RedisLike, 41), w, Touch, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary(8)
	if s.Workload != "trending_small" || s.Engine != "redislike" || s.Policy != "touch" {
		t.Errorf("labels: %+v", s)
	}
	if s.Keys != 1000 || s.Requests != 10000 {
		t.Errorf("scale: keys=%d requests=%d", s.Keys, s.Requests)
	}
	if s.Advice == nil {
		t.Fatal("advice missing")
	}
	if s.Advice.CostFactor <= 0 || s.Advice.CostFactor >= 1 {
		t.Errorf("advice cost %v", s.Advice.CostFactor)
	}
	// Curve: endpoints present, cost monotone.
	if len(s.Curve) < 3 {
		t.Fatalf("curve points = %d", len(s.Curve))
	}
	if s.Curve[0].KeysInFast != 0 || s.Curve[len(s.Curve)-1].KeysInFast != 1000 {
		t.Error("curve endpoints missing")
	}
	for i := 1; i < len(s.Curve); i++ {
		if s.Curve[i].CostFactor < s.Curve[i-1].CostFactor {
			t.Fatal("summary curve not cost-monotone")
		}
	}
	// Round-trips through JSON.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Advice == nil || back.Advice.KeysInFast != s.Advice.KeysInFast {
		t.Error("JSON round trip lost advice")
	}
}

func TestReportSummaryNoAdviceNoCurve(t *testing.T) {
	w := testWorkload(42)
	rep, err := Profile(context.Background(), DefaultConfig(server.RedisLike, 42), w, Touch, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary(0)
	if s.Advice != nil {
		t.Error("advice should be absent without an SLO")
	}
	if len(s.Curve) != 0 {
		t.Error("curve should be omitted for samples ≤ 0")
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) == "" {
		t.Fatal("empty JSON")
	}
}
