package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// genCapture writes a synthetic Redis MONITOR capture: `lines` commands
// over `keys` keys with a 0.2/0.9 hotspot (90% of commands hit the first
// fifth of the key space), 80% GET / 17% SET / 3% DEL. Every key has a
// fixed payload size drawn log-uniformly from 64 B–4 KB, so the parser's
// "largest SET payload" rule recovers it. The same seed gives the same
// bytes.
func genCapture(seed int64, keys, lines int) []byte {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, keys)
	for i := range sizes {
		sizes[i] = int(64 * math.Pow(64, rng.Float64())) // 64 .. 4096
	}
	payload := bytes.Repeat([]byte{'x'}, 4096)
	hot := keys / 5
	if hot < 1 {
		hot = 1
	}
	var buf bytes.Buffer
	buf.Grow(lines * 64)
	buf.WriteString("OK\n")
	ts := 1530699284.0
	var num []byte
	for i := 0; i < lines; i++ {
		k := rng.Intn(hot)
		if keys > hot && rng.Float64() >= 0.9 {
			k = hot + rng.Intn(keys-hot)
		}
		ts += 0.0001
		num = strconv.AppendFloat(num[:0], ts, 'f', 6, 64)
		buf.Write(num)
		buf.WriteString(` [0 127.0.0.1:51442] `)
		switch r := rng.Float64(); {
		case r < 0.80:
			fmt.Fprintf(&buf, "\"GET\" \"user:%07d\"\n", k)
		case r < 0.97:
			fmt.Fprintf(&buf, "\"SET\" \"user:%07d\" \"", k)
			buf.Write(payload[:sizes[k]])
			buf.WriteString("\"\n")
		default:
			fmt.Fprintf(&buf, "\"DEL\" \"user:%07d\"\n", k)
		}
	}
	return buf.Bytes()
}
