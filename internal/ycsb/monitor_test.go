package ycsb

import (
	"reflect"
	"strings"
	"testing"

	"mnemo/internal/kvstore"
)

const sampleMonitor = `OK
1530699284.926984 [0 127.0.0.1:51442] "GET" "user:1001"
1530699284.930000 [0 127.0.0.1:51442] "SET" "user:1001" "0123456789"
1530699285.000000 [0 127.0.0.1:51442] "GET" "user:1002"
1530699285.100000 [0 127.0.0.1:51442] "MGET" "user:1001" "user:1002"
1530699285.200000 [0 127.0.0.1:51442] "SETEX" "sess:9" "300" "abcd"
1530699285.300000 [0 127.0.0.1:51442] "PING"
1530699285.400000 [0 127.0.0.1:51442] "DEL" "user:1002"
1530699285.500000 [0 127.0.0.1:51442] "INCR" "counter"
`

func TestParseRedisMonitor(t *testing.T) {
	w, err := ParseRedisMonitor(strings.NewReader(sampleMonitor), 128)
	if err != nil {
		t.Fatal(err)
	}
	// Keys: user:1001, user:1002, sess:9, counter.
	if len(w.Dataset.Records) != 4 {
		t.Fatalf("records = %d, want 4", len(w.Dataset.Records))
	}
	// Ops: GET, SET, GET, 2×MGET reads, SETEX write, DEL, INCR = 8.
	if len(w.Ops) != 8 {
		t.Fatalf("ops = %d, want 8", len(w.Ops))
	}
	kinds := map[kvstore.OpKind]int{}
	for _, op := range w.Ops {
		kinds[op.Kind]++
	}
	if kinds[kvstore.Read] != 4 || kinds[kvstore.Write] != 3 || kinds[kvstore.Delete] != 1 {
		t.Fatalf("kind mix = %v", kinds)
	}
	// user:1001's size comes from its SET payload (10 bytes); counter
	// never saw a payload → default.
	bySize := map[string]int{}
	for _, rec := range w.Dataset.Records {
		bySize[rec.Key] = rec.Size
	}
	if bySize["user:1001"] != 10 {
		t.Errorf("user:1001 size %d, want 10", bySize["user:1001"])
	}
	if bySize["sess:9"] != 4 {
		t.Errorf("sess:9 size %d, want 4 (SETEX payload)", bySize["sess:9"])
	}
	if bySize["counter"] != 128 {
		t.Errorf("counter size %d, want default 128", bySize["counter"])
	}
	if w.Spec.Name != "redis_monitor" || w.Spec.Requests != 8 || w.Spec.Keys != 4 {
		t.Errorf("spec: %+v", w.Spec)
	}
}

func TestParseRedisMonitorEscapes(t *testing.T) {
	in := `1.0 [0 x] "SET" "key\"with\\quotes" "\x41\x42\n"` + "\n" +
		`1.1 [0 x] "GET" "key\"with\\quotes"` + "\n"
	w, err := ParseRedisMonitor(strings.NewReader(in), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Dataset.Records) != 1 {
		t.Fatalf("escaped key not deduplicated: %d records", len(w.Dataset.Records))
	}
	if w.Dataset.Records[0].Key != `key"with\quotes` {
		t.Errorf("key = %q", w.Dataset.Records[0].Key)
	}
	if w.Dataset.Records[0].Size != 3 { // "AB\n"
		t.Errorf("payload size = %d, want 3", w.Dataset.Records[0].Size)
	}
}

func TestParseRedisMonitorErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"only noise":   "OK\n1.0 [0 x] \"PING\"\n",
		"keyless get":  `1.0 [0 x] "GET"` + "\n",
		"unterminated": `1.0 [0 x] "GET" "user` + "\n",
	}
	for name, in := range cases {
		if _, err := ParseRedisMonitor(strings.NewReader(in), 64); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseRedisMonitor(strings.NewReader(sampleMonitor), 0); err == nil {
		t.Error("zero default size accepted")
	}
	if _, err := ParseRedisMonitor(strings.NewReader(sampleMonitor), 1<<31-1); err == nil {
		t.Error("absurd default size accepted")
	}
}

func TestParseRedisMonitorProfilesEndToEnd(t *testing.T) {
	// An imported trace behaves like any other workload descriptor.
	var b strings.Builder
	b.WriteString("OK\n")
	for i := 0; i < 50; i++ {
		key := KeyName(i % 10)
		b.WriteString(`1.0 [0 x] "SET" "` + key + `" "payloadpayload"` + "\n")
		b.WriteString(`1.1 [0 x] "GET" "` + key + `"` + "\n")
	}
	w, err := ParseRedisMonitor(strings.NewReader(b.String()), 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Ops) != 100 || len(w.Dataset.Records) != 10 {
		t.Fatalf("trace shape: %d ops, %d records", len(w.Ops), len(w.Dataset.Records))
	}
	order, err := w.TouchOrder()
	if err != nil || len(order) != 10 {
		t.Fatalf("touch order len %d", len(order))
	}
	reads, writes := w.AccessCounts()
	for i := 0; i < 10; i++ {
		if reads[i] != 5 || writes[i] != 5 {
			t.Fatalf("key %d counts %d/%d, want 5/5", i, reads[i], writes[i])
		}
	}
}

// TestMonitorFieldEscapes pins the field rules of the in-place MONITOR
// scanner: how each escape unescapes, that a payload's measured length
// is its unescaped length, and which lines leave a quote unterminated.
func TestMonitorFieldEscapes(t *testing.T) {
	for _, tc := range []struct {
		line string
		want []string // unescaped fields; nil with err set
		err  bool
	}{
		{line: `1.0 [0 x] "GET" "user:1"`, want: []string{"GET", "user:1"}},
		{line: `"\x41\x62c"`, want: []string{"Abc"}},
		{line: `"\xZZ"`, want: []string{"xZZ"}}, // bad \x: an x
		{line: `"\x4"`, want: []string{"x4"}},   // one hex digit: an x
		{line: `"\x4g"`, want: []string{"x4g"}}, // second digit not hex
		{line: `"a\\b"`, want: []string{`a\b`}}, // \\
		{line: `"say \"hi\""`, want: []string{`say "hi"`}},
		{line: `"\n\r\t"`, want: []string{"\n\r\t"}},
		{line: `"\q"`, want: []string{"q"}}, // any other escaped byte
		{line: `prefix only`, want: nil},
		{line: `"" "x"`, want: []string{"", "x"}},
		{line: `"GET" "user`, err: true},
		{line: `"GET" "user\"`, err: true}, // the escaped quote does not close
		{line: `"GET" "user\`, err: true},
	} {
		fields, err := splitMonitorLine([]byte(tc.line), nil)
		if tc.err {
			if err == nil || err.Error() != "unterminated quote" {
				t.Errorf("%s: error %v, want unterminated quote", tc.line, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.line, err)
		}
		var got []string
		for _, f := range fields {
			u := unescape(nil, f)
			if n := unescapedLen(f); n != len(u) {
				t.Errorf("%s: field %q measures %d bytes, unescapes to %d", tc.line, f, n, len(u))
			}
			got = append(got, string(u))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fields %q, want %q", tc.line, got, tc.want)
		}
	}
	if _, err := ParseRedisMonitor(strings.NewReader("\"GET\" \"a\"\n\"SET\" \"a\" \"x\n"), 8); err == nil || err.Error() != "ycsb: monitor line 2: unterminated quote" {
		t.Errorf("unterminated payload: %v", err)
	}
}
