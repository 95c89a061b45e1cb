package tune

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeTuneSpec hammers the tuned-config parser (`mnemo -config`
// reads these from disk): arbitrary input must yield an error or a
// valid spec, never a panic, and a spec that decodes must survive its
// own encoding unchanged.
func FuzzDecodeTuneSpec(f *testing.F) {
	// The spec nightly.yml's tune-smoke job writes and replays.
	f.Add(`{"version":1,"workload":{"name":"news_feed","seed":42,"keys":800,"requests":12000},` +
		`"workload_hash":"6a2f480fa9c183df","engine":"redislike","seed":42,"runs":1,"price_factor":0.2,` +
		`"noise_sigma":0.02,"slo":0.07,"policy":"adaptive-mnemot","expected":{"cost_factor":0.5425653061656581,` +
		`"slowdown":0.06994455035317726,"fast_bytes":37719033,"keys_in_fast":428}}`)
	f.Add(`{"version":1,"workload":{"name":"ycsb_b"},"workload_hash":"0","engine":"dynamolike","runs":3,` +
		`"price_factor":1,"slo":0.1,"policy":"knapsack","params":{"anchor":0.25,"rungs":5},` +
		`"size_aware":true,"expected":{}}`)
	f.Add(`{"version":1,"workload":{"name":"x"},"workload_hash":"ffffffffffffffff","engine":"memcachedlike",` +
		`"runs":1,"price_factor":1e-9,"slo":1e308,"policy":"pagesample","params":{},"expected":{"fast_bytes":-1}}`)
	// A negative σ once decoded cleanly and panicked in the replay.
	f.Add(`{"version":1,"workload":{"name":"ycsb_b"},"workload_hash":"0","engine":"redislike","runs":1,` +
		`"price_factor":0.2,"noise_sigma":-0.5,"slo":0.1,"policy":"touch","expected":{}}`)
	f.Add(`{"version":1,"params":{"anchor":1e999}}`)
	f.Add(`{"version":9}`)
	f.Add(`[]`)
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := DecodeSpec(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("DecodeSpec returned an invalid spec: %v", err)
		}
		if _, err := spec.Config(); err != nil {
			t.Fatalf("decoded spec has no config: %v", err)
		}
		var buf bytes.Buffer
		if err := spec.Encode(&buf); err != nil {
			t.Fatalf("decoded spec does not encode: %v", err)
		}
		again, err := DecodeSpec(&buf)
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v", err)
		}
		// omitempty drops an empty map the input spelled out.
		if len(spec.Params) == 0 {
			spec.Params = nil
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("spec changed across encode/decode:\n%+v\nvs\n%+v", again, spec)
		}
	})
}
