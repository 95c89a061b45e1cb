package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
)

// File is an opened .mtrc trace: the decoded schema header plus the
// frame region, addressed by offset so any number of independent frame
// iterators can stream it concurrently (sharded replay re-executes
// shard sub-traces; repetitions re-open the same trace). Only the
// header and one frame per iterator are ever resident.
type File struct {
	Header   Header
	src      io.ReaderAt
	size     int64
	frameOff int64
}

// OpenFile opens a .mtrc trace on disk and decodes its header. The
// underlying *os.File is held by the returned File for its lifetime
// (the os package's own finalizer reclaims the descriptor if the caller
// never explicitly closes the file).
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	t, err := New(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// New decodes a .mtrc header from any random-access source of the given
// size — a file, or a bytes.Reader in tests and the fuzz target.
func New(src io.ReaderAt, size int64) (*File, error) {
	f := &File{src: src, size: size}
	if err := f.decodeHeader(); err != nil {
		return nil, err
	}
	return f, nil
}

// Requests reports the declared op total of the trace.
func (f *File) Requests() int { return int(f.Header.Requests) }

// byteCursor walks a decoded byte slice with bounds checking.
type byteCursor struct {
	buf []byte
	pos int
	off int64 // absolute file offset of buf[0], for error reporting
}

func (c *byteCursor) at() int64 { return c.off + int64(c.pos) }

func (c *byteCursor) take(n int) ([]byte, error) {
	if len(c.buf)-c.pos < n {
		return nil, formatErr(c.at(), ErrTruncated, "need %d bytes, %d left in section", n, len(c.buf)-c.pos)
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	return b, nil
}

func (c *byteCursor) u16() (uint16, error) {
	b, err := c.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (c *byteCursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *byteCursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// decodeHeader reads and validates the prelude and schema header.
// Allocations are bounded by the actual file size, never by a length
// field alone, so a hostile header cannot force an OOM.
func (f *File) decodeHeader() error {
	var pre [preludeLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(f.src, 0, f.size), pre[:]); err != nil {
		return formatErr(0, ErrTruncated, "prelude: %v", err)
	}
	if string(pre[:4]) != Magic {
		return formatErr(0, ErrBadMagic, "got %q, want %q", pre[:4], Magic)
	}
	if v := binary.LittleEndian.Uint16(pre[4:6]); v != Version {
		return formatErr(4, ErrBadVersion, "got %d, want %d", v, Version)
	}
	hdrLen := int64(binary.LittleEndian.Uint32(pre[6:10]))
	if hdrLen < fixedHeaderLen {
		return formatErr(6, ErrSchema, "header length %d below fixed minimum %d", hdrLen, fixedHeaderLen)
	}
	if hdrLen > f.size-preludeLen-4 {
		return formatErr(6, ErrTruncated, "header length %d exceeds file size %d", hdrLen, f.size)
	}
	raw := make([]byte, hdrLen)
	if _, err := io.ReadFull(io.NewSectionReader(f.src, preludeLen, hdrLen), raw); err != nil {
		return formatErr(preludeLen, ErrTruncated, "header: %v", err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(io.NewSectionReader(f.src, preludeLen+hdrLen, 4), crcb[:]); err != nil {
		return formatErr(preludeLen+hdrLen, ErrTruncated, "header checksum: %v", err)
	}
	if got, want := crc32.ChecksumIEEE(raw), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return formatErr(preludeLen+hdrLen, ErrChecksum, "header crc %08x, stored %08x", got, want)
	}

	c := &byteCursor{buf: raw, off: preludeLen}
	h := &f.Header
	var err error
	if h.Flags, err = c.u16(); err != nil {
		return err
	}
	legend, err := c.take(2) // opKinds, pad
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
	reqOff := c.at()
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
		v := binary.LittleEndian.Uint32(sizesRaw[i*4:])
		if v > math.MaxInt32 {
			return formatErr(c.at(), ErrSchema, "value size %d for key %d overflows int32", v, i)
		}
		h.Sizes[i] = int32(v)
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
	f.frameOff = preludeLen + hdrLen + 4
	// A request costs at least its 5 frame bytes (key and kind), so the
	// bytes after the header bound the total a consumer may size from.
	if h.Requests > uint64(f.size-f.frameOff)/5 {
		return formatErr(reqOff, errTotalBeyondFile, "request total %d exceeds what %d frame bytes can hold", h.Requests, f.size-f.frameOff)
	}
	return nil
}

// Frames starts an independent frame iterator at the first frame.
// Iterators share nothing but the (read-only) source, so concurrent
// iterators are safe.
func (f *File) Frames() (*FrameReader, error) {
	buf := frameBufPool.Get().(*frameBuf)
	buf.r.Reset(io.NewSectionReader(f.src, f.frameOff, f.size-f.frameOff))
	return &FrameReader{f: f, buf: buf, off: f.frameOff, remaining: f.Header.Requests}, nil
}

// frameBuf is one iterator's working set: the read-ahead over the frame
// section and the decoded frame. Exactly one frame is resident per
// reader.
type frameBuf struct {
	r       *bufio.Reader
	keys    [FrameOps]uint32
	kinds   [FrameOps]uint8
	payload [FrameOps * 5]byte
}

// frameBufPool recycles frame buffers across iterators: replay paths
// open an iterator per repetition (and per shard), and allocating the
// 64KB read-ahead plus 40KB of frame arrays per open would dominate
// short traces. A buffer's contents are only ever read up to the
// decoded op count, so reuse without zeroing is safe.
var frameBufPool = sync.Pool{New: func() any { return &frameBuf{r: bufio.NewReaderSize(nil, 1<<16)} }}

// FrameReader streams a trace's frames in order, reading, CRC-checking
// and decoding each one in the caller's goroutine. Next's returned
// slices alias the reader's frame buffer and are valid until the next
// call. The buffer goes back to the pool when the iterator ends (EOF or
// error); an iterator abandoned mid-trace leaves it to the GC.
type FrameReader struct {
	f         *File
	buf       *frameBuf // nil once the iterator has ended
	off       int64     // absolute offset of the next unread byte
	remaining uint64
	err       error // terminal state, sticky once set
}

// Next returns the next frame's key indices, op kinds, and whether the
// frame is read/write-only (the batched kernel's precondition, from the
// frame's recorded flag, verified against the content). It returns
// io.EOF exactly when the declared request total has been consumed and
// the file ends; errors (and EOF) are sticky.
func (it *FrameReader) Next() (keys []uint32, kinds []uint8, rw bool, err error) {
	if it.err != nil {
		return nil, nil, false, it.err
	}
	n, rw, err := it.decode()
	if err != nil {
		it.err = err
		it.buf.r.Reset(nil) // drop the section-reader reference
		frameBufPool.Put(it.buf)
		it.buf = nil
		return nil, nil, false, err
	}
	return it.buf.keys[:n], it.buf.kinds[:n], rw, nil
}

// decode reads, checksums and validates the next frame into the
// iterator's buffer, returning its op count and read/write flag. It
// returns io.EOF exactly when the declared request total has been
// consumed and the file ends.
func (it *FrameReader) decode() (int, bool, error) {
	buf := it.buf
	if it.remaining == 0 {
		if _, err := buf.r.ReadByte(); err != io.EOF {
			return 0, false, formatErr(it.off, ErrSchema, "trailing bytes after declared %d ops", it.f.Header.Requests)
		}
		return 0, false, io.EOF
	}
	var head [frameHeadLen]byte
	if _, err := io.ReadFull(buf.r, head[:]); err != nil {
		return 0, false, formatErr(it.off, ErrTruncated, "frame header: %v", err)
	}
	count := binary.LittleEndian.Uint32(head[0:4])
	flags := head[4]
	if count == 0 || count > FrameOps {
		return 0, false, formatErr(it.off, ErrSchema, "frame op count %d outside [1, %d]", count, FrameOps)
	}
	if uint64(count) > it.remaining {
		return 0, false, formatErr(it.off, ErrSchema, "frame op count %d exceeds remaining declared ops %d", count, it.remaining)
	}
	n := int(count)
	need := n * 5
	payload := buf.payload[:need]
	if _, err := io.ReadFull(buf.r, payload); err != nil {
		return 0, false, formatErr(it.off+frameHeadLen, ErrTruncated, "frame payload: %v", err)
	}
	var crcb [frameCRCLen]byte
	if _, err := io.ReadFull(buf.r, crcb[:]); err != nil {
		return 0, false, formatErr(it.off+frameHeadLen+int64(need), ErrTruncated, "frame checksum: %v", err)
	}
	crc := crc32.ChecksumIEEE(head[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if want := binary.LittleEndian.Uint32(crcb[:]); crc != want {
		return 0, false, formatErr(it.off, ErrChecksum, "frame crc %08x, stored %08x", crc, want)
	}

	nkeys := f32(it.f.Header.Keys)
	for i := 0; i < n; i++ {
		k := binary.LittleEndian.Uint32(payload[i*4:])
		if k >= nkeys {
			return 0, false, formatErr(it.off, ErrSchema, "key index %d outside key space %d", k, nkeys)
		}
		buf.keys[i] = k
	}
	kindBytes := payload[n*4:]
	rwActual := true
	for i := 0; i < n; i++ {
		k := kindBytes[i]
		if k >= OpKinds {
			return 0, false, formatErr(it.off, ErrSchema, "op kind %d outside legend %d", k, OpKinds)
		}
		if k > 1 {
			rwActual = false
		}
		buf.kinds[i] = k
	}
	rw := flags&FrameReadWrite != 0
	if rw && !rwActual {
		return 0, false, formatErr(it.off, ErrSchema, "frame flagged read/write-only but contains structural ops")
	}
	it.remaining -= uint64(count)
	it.off += frameLen(n)
	return n, rw, nil
}

// f32 converts a validated key-space size to uint32.
func f32(keys int) uint32 {
	if keys < 0 || keys > math.MaxUint32 {
		panic(fmt.Sprintf("trace: key space %d outside uint32", keys))
	}
	return uint32(keys)
}
