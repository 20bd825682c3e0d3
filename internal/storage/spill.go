package storage

// Spill files are the on-disk form of frozen batch streams: the
// out-of-core layer serializes flight replay buffers and demoted
// result-cache entries into them and replays them through streaming,
// record-aligned reads. The format is a frame stream so a reader can
// follow a writer that is still appending (the mount service's late
// joiners replay from disk while the extraction runs):
//
//	header:  magic "RSPILL1\n" | u32 ncols | ncols × u8 kind
//	frame:   u8 tag
//	  batch (tag 1): u32 payloadLen | u32 nNewDict | nNewDict ×
//	                 (u32 len | bytes) | u32 rows | per column
//	                 rows × diskWidth(kind) bytes
//	  end   (tag 2): u32 totalBatches
//
// VARCHAR values are dictionary codes against a per-file dictionary
// built incrementally: each batch frame carries the strings first seen
// in that batch, in code order, so a sequential reader reconstructs the
// dictionary as it goes and never needs a side file. Fixed-width kinds
// use the column-file encoding (little-endian; DOUBLE via Float64bits,
// so NaN payloads and ±Inf survive bit-exactly).
//
// Every frame is written with one Write call, so a frame the writer has
// reported durable is fully visible to concurrent readers of the same
// file. I/O is charged to the engine's modeled disk: one sequential
// ChargeWrite per frame written, one ChargeRead per frame read (the
// first read of a file pays the seek).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/vector"
)

// ErrCorruptSpill marks a spill file that cannot be decoded: bad magic,
// a torn or truncated frame, an out-of-range dictionary code. Callers
// treat it as "the spilled data is gone", never as fatal.
var ErrCorruptSpill = errors.New("storage: corrupt spill file")

var spillMagic = [8]byte{'R', 'S', 'P', 'I', 'L', 'L', '1', '\n'}

const (
	spillFrameBatch = 1
	spillFrameEnd   = 2
)

// SpillFile is an owned temporary file handle with an explicit end of
// life: every CreateSpillFile must be paired with exactly one Remove
// (delete the temp file) or Adopt (keep it, ownership moves to the
// caller's bookkeeping) on every path — the releasecheck analyzer
// enforces the pairing, so a leaked spill temp file is a lint failure.
type SpillFile struct {
	f       *os.File
	path    string
	settled bool
}

// CreateSpillFile creates a uniquely named spill file in dir (pattern
// as in os.CreateTemp).
func CreateSpillFile(dir, pattern string) (*SpillFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, fmt.Errorf("storage: create spill file: %w", err)
	}
	return &SpillFile{f: f, path: f.Name()}, nil
}

// File returns the open write handle.
func (s *SpillFile) File() *os.File { return s.f }

// Path returns the file's path.
func (s *SpillFile) Path() string { return s.path }

// Remove closes the handle and deletes the file (best effort). Calling
// Remove or Adopt twice panics: like a double budget release, it means
// two owners believed they held the file.
func (s *SpillFile) Remove() {
	s.settle()
	s.f.Close()
	os.Remove(s.path)
}

// Adopt closes the write handle and keeps the file on disk, returning
// its path: ownership transfers to the caller (e.g. a cache manifest).
// On a close error the file is removed and the error returned; either
// way the handle is settled.
func (s *SpillFile) Adopt() (string, error) {
	s.settle()
	if err := s.f.Close(); err != nil {
		os.Remove(s.path)
		return "", fmt.Errorf("storage: adopt spill file: %w", err)
	}
	return s.path, nil
}

func (s *SpillFile) settle() {
	if s.settled {
		panic("storage: spill file already removed or adopted")
	}
	s.settled = true
}

// BatchWriter appends batch frames to a spill file. It is not safe for
// concurrent use; the out-of-core call sites write from exactly one
// goroutine per file.
type BatchWriter struct {
	w       io.Writer
	kinds   []vector.Kind
	dictIdx map[string]int64
	dictLen int64
	model   DiskModel
	clock   *Clock
	started bool
	batches int
	scratch []byte
}

// NewBatchWriter returns a writer over w. The column schema is the first
// appended batch's; the header is written lazily with the first frame.
func NewBatchWriter(w io.Writer, model DiskModel, clock *Clock) *BatchWriter {
	return &BatchWriter{w: w, dictIdx: make(map[string]int64), model: model, clock: clock}
}

func appendUint32(dst []byte, v uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return append(dst, buf[:]...)
}

func (w *BatchWriter) flush(frame []byte) error {
	if _, err := w.w.Write(frame); err != nil {
		return fmt.Errorf("storage: write spill frame: %w", err)
	}
	w.model.ChargeWrite(w.clock, int64(len(frame)))
	return nil
}

// start writes the header before the first frame, taking the schema
// from the first batch (a file finished without one has no columns).
func (w *BatchWriter) start(first *vector.Batch) error {
	if w.started {
		return nil
	}
	w.started = true
	if first != nil {
		for _, c := range first.Cols {
			w.kinds = append(w.kinds, c.Kind())
		}
	}
	hdr := append([]byte{}, spillMagic[:]...)
	hdr = appendUint32(hdr, uint32(len(w.kinds)))
	for _, k := range w.kinds {
		hdr = append(hdr, byte(k))
	}
	return w.flush(hdr)
}

// Append writes one batch as a frame. The batch's column kinds must
// match the writer's schema. Empty batches are valid frames.
func (w *BatchWriter) Append(b *vector.Batch) error {
	if b == nil {
		return errors.New("storage: BatchWriter.Append on nil batch")
	}
	if err := w.start(b); err != nil {
		return err
	}
	if b.NumCols() != len(w.kinds) {
		return fmt.Errorf("storage: spill batch has %d columns, schema has %d", b.NumCols(), len(w.kinds))
	}

	// Collect the strings this batch introduces, in code order.
	var newDict []string
	rows := b.Len()
	for i, col := range b.Cols {
		k := col.Kind()
		if k != w.kinds[i] {
			return fmt.Errorf("storage: spill batch column %d is %s, schema says %s", i, k, w.kinds[i])
		}
		if k == vector.KindString {
			for _, s := range col.Strings() {
				if _, ok := w.dictIdx[s]; !ok {
					w.dictIdx[s] = w.dictLen
					w.dictLen++
					newDict = append(newDict, s)
				}
			}
		}
	}
	payload := w.scratch[:0]
	payload = appendUint32(payload, uint32(len(newDict)))
	for _, s := range newDict {
		payload = appendUint32(payload, uint32(len(s)))
		payload = append(payload, s...)
	}
	payload = appendUint32(payload, uint32(rows))
	var codeBuf [8]byte
	for _, col := range b.Cols {
		if col.Kind() == vector.KindString {
			for _, s := range col.Strings() {
				binary.LittleEndian.PutUint64(codeBuf[:], uint64(w.dictIdx[s]))
				payload = append(payload, codeBuf[:]...)
			}
			continue
		}
		payload = encodeVector(payload, col)
	}

	frame := make([]byte, 0, 5+len(payload))
	frame = append(frame, spillFrameBatch)
	frame = appendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	if err := w.flush(frame); err != nil {
		return err
	}
	w.batches++
	w.scratch = payload[:0]
	return nil
}

// Finish writes the end frame. A file without one is either still being
// written or truncated; readers only treat end-framed files as complete.
func (w *BatchWriter) Finish() error {
	if err := w.start(nil); err != nil {
		return err
	}
	frame := []byte{spillFrameEnd}
	frame = appendUint32(frame, uint32(w.batches))
	return w.flush(frame)
}

// WriteSpill writes batches as one complete spill file (header, one
// frame per batch, end frame) in dir, named by pattern as in
// os.CreateTemp, and returns its path. On error no file is left behind.
func WriteSpill(dir, pattern string, batches []*vector.Batch, model DiskModel, clock *Clock) (string, error) {
	sf, err := CreateSpillFile(dir, pattern)
	if err != nil {
		return "", err
	}
	w := NewBatchWriter(sf.File(), model, clock)
	for _, b := range batches {
		if err := w.Append(b); err != nil {
			sf.Remove()
			return "", err
		}
	}
	if err := w.Finish(); err != nil {
		sf.Remove()
		return "", err
	}
	return sf.Adopt()
}

// ReadSpill reads a complete spill file back into its batch list. A
// file without its end frame, or with any undecodable byte, is an error
// wrapping ErrCorruptSpill.
func ReadSpill(path string, model DiskModel, clock *Clock) ([]*vector.Batch, error) {
	r, err := OpenBatchReader(path, model, clock)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var batches []*vector.Batch
	for {
		b, err := r.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return batches, nil
		}
		batches = append(batches, b)
	}
}

// BatchReader streams batches back out of a spill file in write order.
// It maintains its own dictionary state from the frames' deltas, so any
// number of readers can replay one file independently (including while
// a writer is still appending, as long as the caller only asks for
// frames the writer has already written).
type BatchReader struct {
	f     *os.File
	kinds []vector.Kind
	dict  []string
	model DiskModel
	clock *Clock
	read  int // batch frames decoded
	first bool
	done  bool
}

// OpenBatchReader opens a spill file and validates its header.
func OpenBatchReader(path string, model DiskModel, clock *Clock) (*BatchReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open spill %s: %w", path, err)
	}
	hdr := make([]byte, len(spillMagic)+4)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: short header", ErrCorruptSpill, path)
	}
	if [8]byte(hdr[:8]) != spillMagic {
		f.Close()
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorruptSpill, path)
	}
	// The schema must fit in the file: a corrupt count must not allocate.
	ncols := binary.LittleEndian.Uint32(hdr[8:])
	fi, err := f.Stat()
	if err != nil || int64(ncols) > fi.Size()-int64(len(hdr)) {
		f.Close()
		return nil, fmt.Errorf("%w: %s: implausible column count %d", ErrCorruptSpill, path, ncols)
	}
	kb := make([]byte, ncols)
	if _, err := io.ReadFull(f, kb); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: short schema", ErrCorruptSpill, path)
	}
	kinds := make([]vector.Kind, ncols)
	for i, b := range kb {
		k := vector.Kind(b)
		if k == vector.KindInvalid || k > vector.KindTime {
			f.Close()
			return nil, fmt.Errorf("%w: %s: invalid column kind %d", ErrCorruptSpill, path, b)
		}
		kinds[i] = k
	}
	return &BatchReader{f: f, kinds: kinds, model: model, clock: clock, first: true}, nil
}

// Close releases the file handle.
func (r *BatchReader) Close() error { return r.f.Close() }

func (r *BatchReader) charge(n int) {
	pages := (n + PageSize - 1) / PageSize
	if pages == 0 {
		pages = 1
	}
	r.model.ChargeRead(r.clock, pages, !r.first)
	r.first = false
}

// Next decodes the next batch frame. It returns (nil, nil) at the end
// frame; hitting raw EOF or any undecodable bytes instead returns an
// error wrapping ErrCorruptSpill — a file without its end frame is
// truncated (or still being written, in which case the caller should
// not have read this far).
func (r *BatchReader) Next() (*vector.Batch, error) {
	if r.done {
		return nil, nil
	}
	var tag [1]byte
	if _, err := io.ReadFull(r.f, tag[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated before frame %d", ErrCorruptSpill, r.read)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r.f, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: torn frame %d", ErrCorruptSpill, r.read)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	switch tag[0] {
	case spillFrameEnd:
		r.charge(5)
		if int(n) != r.read {
			return nil, fmt.Errorf("%w: end frame says %d batches, read %d", ErrCorruptSpill, n, r.read)
		}
		r.done = true
		return nil, nil
	case spillFrameBatch:
		// A corrupt length must not allocate: the payload has to fit in
		// what the file holds past this frame header.
		pos, err := r.f.Seek(0, io.SeekCurrent)
		if err != nil {
			return nil, fmt.Errorf("storage: spill frame %d: %w", r.read, err)
		}
		fi, err := r.f.Stat()
		if err != nil {
			return nil, fmt.Errorf("storage: spill frame %d: %w", r.read, err)
		}
		if int64(n) > fi.Size()-pos {
			return nil, fmt.Errorf("%w: frame %d claims %d bytes, %d left", ErrCorruptSpill, r.read, n, fi.Size()-pos)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r.f, payload); err != nil {
			return nil, fmt.Errorf("%w: torn frame %d", ErrCorruptSpill, r.read)
		}
		r.charge(5 + int(n))
		b, err := r.decodeFrame(payload)
		if err != nil {
			return nil, err
		}
		r.read++
		return b, nil
	default:
		return nil, fmt.Errorf("%w: unknown frame tag %d", ErrCorruptSpill, tag[0])
	}
}

func (r *BatchReader) decodeFrame(p []byte) (*vector.Batch, error) {
	torn := fmt.Errorf("%w: torn payload in frame %d", ErrCorruptSpill, r.read)
	u32 := func() (uint32, bool) {
		if len(p) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v, true
	}
	nDict, ok := u32()
	if !ok {
		return nil, torn
	}
	for i := uint32(0); i < nDict; i++ {
		sl, ok := u32()
		if !ok || len(p) < int(sl) {
			return nil, torn
		}
		r.dict = append(r.dict, string(p[:sl]))
		p = p[sl:]
	}
	rows32, ok := u32()
	if !ok {
		return nil, torn
	}
	rows := int(rows32)
	cols := make([]*vector.Vector, len(r.kinds))
	for i, k := range r.kinds {
		need := rows * diskWidth(k)
		if len(p) < need {
			return nil, torn
		}
		raw := p[:need]
		p = p[need:]
		if k == vector.KindString {
			out := make([]string, rows)
			for j := 0; j < rows; j++ {
				code := int64(binary.LittleEndian.Uint64(raw[j*8:]))
				if code < 0 || code >= int64(len(r.dict)) {
					return nil, fmt.Errorf("%w: dictionary code %d out of range (%d entries)", ErrCorruptSpill, code, len(r.dict))
				}
				out[j] = r.dict[code]
			}
			cols[i] = vector.FromString(out)
			continue
		}
		cols[i] = decodeVector(k, raw, rows, nil)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in frame %d", ErrCorruptSpill, len(p), r.read)
	}
	return vector.NewBatch(cols...), nil
}
