package ycsb

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"mnemo/internal/kvstore"
)

// ParseRedisMonitor converts a Redis MONITOR capture into a workload
// descriptor — the practical way to obtain the "representative key and
// request type sequence" Mnemo consumes (§IV) from a production cache.
//
// MONITOR lines look like:
//
//	1530699284.926984 [0 127.0.0.1:51442] "GET" "user:1001"
//	1530699285.130800 [0 127.0.0.1:51442] "SET" "user:1001" "....payload...."
//
// Command mapping: GET/MGET/GETRANGE/EXISTS → read; SET/SETEX/SETNX/
// APPEND/INCR*/DECR* → write; DEL/UNLINK → delete. Other commands
// (SELECT, PING, EXPIRE, …) are skipped. Record sizes are taken from the
// largest SET payload observed per key; keys never written use
// defaultSize (MONITOR does not show GET reply payloads).
func ParseRedisMonitor(r io.Reader, defaultSize int) (*Workload, error) {
	if defaultSize <= 0 {
		return nil, fmt.Errorf("ycsb: default record size %d must be positive", defaultSize)
	}
	if defaultSize > maxRecordSize {
		return nil, fmt.Errorf("ycsb: default record size %d exceeds the %d-byte limit",
			defaultSize, maxRecordSize)
	}
	w := &Workload{Spec: Spec{Name: "redis_monitor"}}
	index := map[string]int{}
	sizes := map[int]int{}
	type pendingOp struct {
		key  int
		kind kvstore.OpKind
	}
	var pending []pendingOp

	// intern returns the record of an unescaped key; a key already seen
	// costs a map probe and no allocation.
	intern := func(key []byte) int {
		if idx, ok := index[string(key)]; ok {
			return idx
		}
		k := string(key)
		idx := len(w.Dataset.Records)
		index[k] = idx
		w.Dataset.Records = append(w.Dataset.Records, Record{Key: k, ID: kvstore.KeyID(k)})
		return idx
	}
	var fields [][]byte
	var buf []byte

	// The scanner's line buffer is scanned in place: only commands and
	// keys are materialized, and a payload is only measured.
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || string(text) == "OK" { // MONITOR's opening "OK"
			continue
		}
		var err error
		if fields, err = splitMonitorLine(text, fields[:0]); err != nil {
			return nil, fmt.Errorf("ycsb: monitor line %d: %w", line, err)
		}
		if len(fields) == 0 {
			continue
		}
		buf = unescape(buf[:0], fields[0])
		cmd := strings.ToUpper(string(buf))
		kind, argKeys, payloadIdx := classifyRedisCommand(cmd, len(fields))
		if kind < 0 {
			continue // uninteresting command
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("ycsb: monitor line %d: %s without a key", line, cmd)
		}
		first := 0 // the record of the first key, which a payload sizes
		for k := 1; k <= argKeys && k < len(fields); k++ {
			buf = unescape(buf[:0], fields[k])
			idx := intern(buf)
			if k == 1 {
				first = idx
			}
			pending = append(pending, pendingOp{key: idx, kind: kvstore.OpKind(kind)})
		}
		if payloadIdx > 0 && payloadIdx < len(fields) {
			if n := unescapedLen(fields[payloadIdx]); n > sizes[first] {
				sizes[first] = n
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ycsb: reading monitor log: %w", err)
	}
	if len(pending) == 0 {
		return nil, fmt.Errorf("ycsb: monitor log contained no data commands")
	}
	// Finalize record sizes, then ops.
	for i := range w.Dataset.Records {
		size, ok := sizes[i]
		if !ok || size == 0 {
			size = defaultSize
		}
		w.Dataset.Records[i].Size = size
		w.Dataset.TotalBytes += int64(size)
	}
	for _, p := range pending {
		w.Ops = append(w.Ops, Op{Key: p.key, Kind: p.kind})
	}
	w.Spec.Keys = len(w.Dataset.Records)
	w.Spec.Requests = len(w.Ops)
	w.Spec.ReadRatio = w.ReadFraction()
	w.Spec.UseCase = "imported from a Redis MONITOR capture"
	return w, nil
}

// classifyRedisCommand maps a command to an op kind (−1 = skip), the
// number of key arguments it touches, and the field index of a payload
// argument that reveals the value size (0 = none).
func classifyRedisCommand(cmd string, nfields int) (kind int, argKeys int, payloadIdx int) {
	switch cmd {
	case "GET", "GETRANGE", "STRLEN", "EXISTS", "TTL", "HGETALL", "LRANGE":
		return int(kvstore.Read), 1, 0
	case "MGET":
		return int(kvstore.Read), nfields - 1, 0
	case "SET", "SETNX", "GETSET":
		return int(kvstore.Write), 1, 2
	case "SETEX", "PSETEX":
		return int(kvstore.Write), 1, 3 // SETEX key seconds value
	case "APPEND", "HSET", "LPUSH", "RPUSH":
		return int(kvstore.Write), 1, 2
	case "INCR", "DECR", "INCRBY", "DECRBY", "INCRBYFLOAT":
		return int(kvstore.Write), 1, 0
	case "DEL", "UNLINK":
		return int(kvstore.Delete), nfields - 1, 0
	default:
		return -1, 0, 0
	}
}

// splitMonitorLine appends the quoted fields of a MONITOR line to
// fields, each as the raw bytes between its quotes (escapes still in
// place: unescape undoes them). The timestamp/client prefix (everything
// before the first quote) is discarded; a prefix-only line yields no
// fields. A backslash escapes the byte after it, a quote included.
func splitMonitorLine(line []byte, fields [][]byte) ([][]byte, error) {
	i := 0
	for i < len(line) {
		if line[i] != '"' {
			i++
			continue
		}
		i++ // consume opening quote
		start := i
		for i < len(line) && line[i] != '"' {
			if line[i] == '\\' && i+1 < len(line) {
				i++
			}
			i++
		}
		if i == len(line) {
			return nil, fmt.Errorf("unterminated quote")
		}
		fields = append(fields, line[start:i])
		i++ // consume closing quote
	}
	return fields, nil
}

// unescapeAt decodes the byte of a raw field that starts at field[i],
// undoing Redis's \xNN, \n, \r, \t, \\ and \" sequences, and returns
// it with the index of the next one. A \x without two hex digits after
// it stands for x, and any other escaped byte for itself.
func unescapeAt(field []byte, i int) (byte, int) {
	c := field[i]
	if c != '\\' || i+1 == len(field) {
		return c, i + 1
	}
	switch e := field[i+1]; e {
	case 'n':
		return '\n', i + 2
	case 'r':
		return '\r', i + 2
	case 't':
		return '\t', i + 2
	case 'x':
		if i+3 < len(field) {
			hi, ok1 := hexVal(field[i+2])
			lo, ok2 := hexVal(field[i+3])
			if ok1 && ok2 {
				return hi<<4 | lo, i + 4
			}
		}
		return 'x', i + 2
	default:
		return e, i + 2
	}
}

// unescape appends a raw field's unescaped bytes to dst.
func unescape(dst, field []byte) []byte {
	if bytes.IndexByte(field, '\\') < 0 {
		return append(dst, field...)
	}
	for i := 0; i < len(field); {
		var c byte
		c, i = unescapeAt(field, i)
		dst = append(dst, c)
	}
	return dst
}

// unescapedLen is len(unescape(nil, field)), without building it.
func unescapedLen(field []byte) int {
	if bytes.IndexByte(field, '\\') < 0 {
		return len(field)
	}
	n := 0
	for i := 0; i < len(field); n++ {
		_, i = unescapeAt(field, i)
	}
	return n
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}
