package report

import (
	"bytes"
	"strings"
	"testing"
)

func shardRowsFixture() []ShardRow {
	return []ShardRow{
		{Shard: 0, Keys: 10, Bytes: 1 << 20, FastKeys: 4, FastBytes: 1 << 18, Requests: 500},
		{Shard: 1, Keys: 12, Bytes: 3 << 20, FastKeys: 2, FastBytes: 1 << 19, Requests: 700},
		{Shard: 2}, // empty shard: the ring assigned it nothing
	}
}

func TestShardTable(t *testing.T) {
	var buf bytes.Buffer
	if err := ShardTable("layout", shardRowsFixture(), 0.2).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"layout", "cost R(p)", "total", "1.0 MiB", "4.0 MiB", "1200"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// The empty shard renders "-" instead of panicking in the cost model.
	if !strings.Contains(out, "-") {
		t.Errorf("empty shard cost not dashed:\n%s", out)
	}
}

func TestShardCost(t *testing.T) {
	if got := shardCost(ShardRow{}, 0.2); got != "-" {
		t.Errorf("empty shard cost = %q, want -", got)
	}
	// All-fast shard costs 1; all-slow shard costs p.
	if got := shardCost(ShardRow{Bytes: 100, FastBytes: 100}, 0.2); got != "1" {
		t.Errorf("all-fast cost = %q, want 1", got)
	}
	if got := shardCost(ShardRow{Bytes: 100, FastBytes: 0}, 0.2); got != "0.2" {
		t.Errorf("all-slow cost = %q, want 0.2", got)
	}
}

func TestShardHTMLSection(t *testing.T) {
	sec := ShardHTMLSection(shardRowsFixture(), 0.2)
	if sec.Heading != "Cluster shard layout" {
		t.Errorf("heading = %q", sec.Heading)
	}
	if sec.Table == nil {
		t.Fatal("section has no table")
	}
	if len(sec.Paragraphs) != 1 {
		t.Fatalf("paragraphs = %d", len(sec.Paragraphs))
	}
	p := sec.Paragraphs[0]
	// Provisioning answer = max per-shard FastMem; request span min–max.
	for _, want := range []string{"3 shard(s)", "512.0 KiB", "0–700"} {
		if !strings.Contains(p, want) {
			t.Errorf("summary missing %q: %s", want, p)
		}
	}
}

func TestShardHTMLSectionEmpty(t *testing.T) {
	sec := ShardHTMLSection(nil, 0.2)
	if !strings.Contains(sec.Paragraphs[0], "0 shard(s)") {
		t.Errorf("empty layout summary: %s", sec.Paragraphs[0])
	}
}
