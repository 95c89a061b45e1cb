package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Independent schema validation, in the pack/scheme idiom: the .mtrc
// layout is written down once more as a declarative section scheme —
// each section a name, a size rule and a check — and Validate walks the
// scheme over the raw bytes. It shares no code with the FrameReader's decode
// path, so an encoder or reader bug that slips a malformed file through
// one implementation is caught by the other; the format tests run every
// fixture through both.

// Summary is what a full validation pass learned about a trace.
type Summary struct {
	Header   Header
	Frames   int
	Ops      uint64
	RWFrames int // frames flagged (and verified) read/write-only
}

// section is one named region of the scheme. Its check consumes the
// section's bytes from the walker and records findings on the summary.
type section struct {
	name  string
	check func(v *walker, s *Summary) error
}

// scheme is the declarative .mtrc v1 layout: the validation contract of
// DESIGN.md §16. Frames validate as one repeated section.
var scheme = []section{
	{"magic", checkMagic},
	{"version", checkVersion},
	{"header", checkHeader},
	{"frames", checkFrames},
}

// walker is the validator's cursor over the raw trace.
type walker struct {
	src  io.ReaderAt
	size int64
	off  int64
	buf  []byte
}

// read consumes n bytes at the cursor.
func (v *walker) read(n int64, what string) ([]byte, error) {
	if n < 0 || v.size-v.off < n {
		return nil, formatErr(v.off, ErrTruncated, "%s: need %d bytes, %d left", what, n, v.size-v.off)
	}
	if int64(cap(v.buf)) < n {
		v.buf = make([]byte, n)
	}
	b := v.buf[:n]
	if _, err := v.src.ReadAt(b, v.off); err != nil {
		return nil, formatErr(v.off, ErrTruncated, "%s: %v", what, err)
	}
	v.off += n
	return b, nil
}

// ValidateFile runs the scheme over a trace file on disk. It opens the
// file itself rather than through OpenFile, so no reader code decodes
// the header first, and it closes the file before returning.
func ValidateFile(path string) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return Validate(f, st.Size())
}

// Validate checks a raw .mtrc byte stream against the scheme,
// independently of the FrameReader. It reads the whole file once (header
// plus every frame), so it is the strong end-to-end check — the FrameReader
// performs the same per-frame validation lazily during replay.
func Validate(src io.ReaderAt, size int64) (*Summary, error) {
	v := &walker{src: src, size: size}
	s := &Summary{}
	for _, sec := range scheme {
		if err := sec.check(v, s); err != nil {
			return nil, fmt.Errorf("%s: %w", sec.name, err)
		}
	}
	if v.off != size {
		return nil, formatErr(v.off, ErrSchema, "%d trailing bytes after final frame", size-v.off)
	}
	return s, nil
}

func checkMagic(v *walker, _ *Summary) error {
	b, err := v.read(4, "magic")
	if err != nil {
		return err
	}
	if string(b) != Magic {
		return formatErr(v.off-4, ErrBadMagic, "got %q, want %q", b, Magic)
	}
	return nil
}

func checkVersion(v *walker, _ *Summary) error {
	b, err := v.read(2, "version")
	if err != nil {
		return err
	}
	if ver := binary.LittleEndian.Uint16(b); ver != Version {
		return formatErr(v.off-2, ErrBadVersion, "got %d, want %d", ver, Version)
	}
	return nil
}

func checkHeader(v *walker, s *Summary) error {
	b, err := v.read(4, "header length")
	if err != nil {
		return err
	}
	hdrLen := int64(binary.LittleEndian.Uint32(b))
	start := v.off
	raw, err := v.read(hdrLen, "header payload")
	if err != nil {
		return err
	}
	crcRaw := crc32.ChecksumIEEE(raw)
	c := &byteCursor{buf: raw, off: start}
	h := &s.Header
	if h.Flags, err = c.u16(); err != nil {
		return err
	}
	legend, err := c.take(2)
	if err != nil {
		return err
	}
	if legend[0] != OpKinds {
		return formatErr(c.at()-2, ErrSchema, "op-kind legend %d, want %d", legend[0], OpKinds)
	}
	keys, err := c.u32()
	if err != nil {
		return err
	}
	if keys == 0 || keys > MaxKeys {
		return formatErr(c.at()-4, ErrSchema, "key-space size %d outside [1, %d]", keys, MaxKeys)
	}
	h.Keys = int(keys)
	if h.Requests, err = c.u64(); err != nil {
		return err
	}
	nameLen, err := c.u16()
	if err != nil {
		return err
	}
	if nameLen > MaxNameLen {
		return formatErr(c.at()-2, ErrSchema, "name length %d exceeds %d", nameLen, MaxNameLen)
	}
	name, err := c.take(int(nameLen))
	if err != nil {
		return err
	}
	h.Name = string(name)
	sizesRaw, err := c.take(h.Keys * 4)
	if err != nil {
		return err
	}
	h.Sizes = make([]int32, h.Keys)
	for i := range h.Sizes {
		h.Sizes[i] = int32(binary.LittleEndian.Uint32(sizesRaw[i*4:]))
		if h.Sizes[i] < 0 {
			return formatErr(c.at(), ErrSchema, "value size of key %d overflows int32", i)
		}
	}
	if !h.Canonical() {
		h.KeyNames = make([]string, h.Keys)
		for i := range h.KeyNames {
			kl, err := c.u16()
			if err != nil {
				return err
			}
			if kl > MaxNameLen {
				return formatErr(c.at()-2, ErrSchema, "key-name length %d exceeds %d", kl, MaxNameLen)
			}
			kn, err := c.take(int(kl))
			if err != nil {
				return err
			}
			h.KeyNames[i] = string(kn)
		}
	}
	if c.pos != len(raw) {
		return formatErr(c.at(), ErrSchema, "%d trailing header bytes", len(raw)-c.pos)
	}
	crcb, err := v.read(4, "header checksum")
	if err != nil {
		return err
	}
	if want := binary.LittleEndian.Uint32(crcb); crcRaw != want {
		return formatErr(v.off-4, ErrChecksum, "header crc %08x, stored %08x", crcRaw, want)
	}
	if h.Requests > uint64(v.size-v.off)/5 {
		return formatErr(start+8, errTotalBeyondFile, "request total %d exceeds what %d frame bytes can hold", h.Requests, v.size-v.off)
	}
	return nil
}

func checkFrames(v *walker, s *Summary) error {
	remaining := s.Header.Requests
	for remaining > 0 {
		start := v.off
		head, err := v.read(frameHeadLen, "frame header")
		if err != nil {
			return err
		}
		count := binary.LittleEndian.Uint32(head[0:4])
		flags := head[4]
		if count == 0 || count > FrameOps {
			return formatErr(start, ErrSchema, "frame op count %d outside [1, %d]", count, FrameOps)
		}
		if uint64(count) > remaining {
			return formatErr(start, ErrSchema, "frame op count %d exceeds remaining declared ops %d", count, remaining)
		}
		crc := crc32.ChecksumIEEE(head)
		n := int64(count)
		payload, err := v.read(n*5, "frame payload")
		if err != nil {
			return err
		}
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		rw := true
		for i := int64(0); i < n; i++ {
			if k := binary.LittleEndian.Uint32(payload[i*4:]); int(k) >= s.Header.Keys {
				return formatErr(start, ErrSchema, "key index %d outside key space %d", k, s.Header.Keys)
			}
		}
		for _, kind := range payload[n*4:] {
			if kind >= OpKinds {
				return formatErr(start, ErrSchema, "op kind %d outside legend %d", kind, OpKinds)
			}
			if kind > 1 {
				rw = false
			}
		}
		if flags&FrameReadWrite != 0 {
			if !rw {
				return formatErr(start, ErrSchema, "frame flagged read/write-only but contains structural ops")
			}
			s.RWFrames++
		}
		crcb, err := v.read(frameCRCLen, "frame checksum")
		if err != nil {
			return err
		}
		if want := binary.LittleEndian.Uint32(crcb); crc != want {
			return formatErr(start, ErrChecksum, "frame crc %08x, stored %08x", crc, want)
		}
		s.Frames++
		s.Ops += uint64(count)
		remaining -= uint64(count)
	}
	return nil
}
