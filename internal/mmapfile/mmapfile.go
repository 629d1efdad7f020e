// Package mmapfile provides read-only file access with zero-copy
// memory-mapped windows where the platform supports it and a plain
// pread fallback everywhere else. It is the backing layer of
// elfx.LoadELFFile: analyses read section bytes as windows of one
// shared mapping instead of materializing whole binaries on the heap.
//
// Lifetime is explicit and safe under concurrency: windows are
// reference-counted, Close refuses nothing and faults never — a file
// closed while readers still hold windows keeps its mapping alive
// until the last window is released, and window requests after Close
// fail with ErrClosed instead of touching freed memory. The size is
// snapshotted at Open: a file that grows underneath never leaks new
// bytes into reads, and one that is truncated underneath degrades to
// short-read errors on the pread path (io.EOF from ReadAt) rather
// than corruption.
package mmapfile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ErrClosed is returned by ReadAt and Window after Close.
var ErrClosed = errors.New("mmapfile: file closed")

// ErrNotMapped is returned by Window when the file has no memory
// mapping (the platform refused one, the file is empty, or the pread
// mode was forced); callers fall back to ReadAt with their own buffer.
var ErrNotMapped = errors.New("mmapfile: file not memory-mapped")

// File is a read-only file opened for windowed access. All methods are
// safe for concurrent use.
type File struct {
	f    *os.File
	size int64
	// data is the whole-file mapping; nil in pread mode.
	data []byte

	mu sync.Mutex
	// refs counts reasons the descriptor and mapping must stay alive:
	// 1 for the open file itself plus one per outstanding Window or
	// in-progress ReadAt. Both are released exactly when the count
	// reaches zero.
	refs   int
	closed bool
}

// Open opens path read-only, mapping it into memory when the platform
// allows; when mapping fails (or the file is empty) the File serves
// pread-only and Window returns ErrNotMapped.
func Open(path string) (*File, error) {
	return open(path, true)
}

// OpenPread opens path read-only without attempting a memory mapping:
// every access goes through pread. Tests use it to exercise the
// fallback path deterministically; behavior is otherwise identical to
// an Open whose mapping failed.
func OpenPread(path string) (*File, error) {
	return open(path, false)
}

func open(path string, tryMap bool) (*File, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mmapfile: %w", err)
	}
	fi, err := osf.Stat()
	if err != nil {
		osf.Close()
		return nil, fmt.Errorf("mmapfile: %w", err)
	}
	f := &File{f: osf, size: fi.Size(), refs: 1}
	if tryMap && f.size > 0 {
		// A failed mapping is not an error: the file still works in
		// pread mode, just without zero-copy windows.
		if data, err := mapFile(osf, f.size); err == nil {
			f.data = data
		}
	}
	return f, nil
}

// Size returns the file size snapshotted at Open. Reads never go past
// it, even when the file grows underneath.
func (f *File) Size() int64 { return f.size }

// Mapped reports whether the file has a zero-copy memory mapping.
func (f *File) Mapped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.data != nil
}

// ReadAt implements io.ReaderAt with pread, bounded by the Open-time
// size: reading past it returns io.EOF (short read), and a file
// truncated underneath surfaces the same way — an error, never stale
// or corrupt bytes presented as valid. ReadAt fails with ErrClosed
// after Close. A ReadAt that releases the last reference after a
// concurrent Close reports the descriptor's close error, if any.
func (f *File) ReadAt(p []byte, off int64) (n int, err error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, ErrClosed
	}
	osf := f.f
	// Hold a reference across the read so a concurrent Close cannot
	// invalidate the descriptor mid-pread.
	f.refs++
	f.mu.Unlock()
	defer func() {
		if cerr := f.unref(); err == nil {
			err = cerr
		}
	}()

	if off < 0 {
		return 0, fmt.Errorf("mmapfile: negative offset %d", off)
	}
	if off >= f.size {
		return 0, io.EOF
	}
	short := false
	if max := f.size - off; int64(len(p)) > max {
		p = p[:max]
		short = true
	}
	n, err = osf.ReadAt(p, off)
	if err == nil && short {
		err = io.EOF
	}
	return n, err
}

// Window returns a zero-copy view of [off, off+n) backed by the
// mapping. The bytes stay valid — even across Close — until the
// window's Close releases its reference; requests on an unmapped file
// return ErrNotMapped and requests outside the Open-time size return
// an error.
func (f *File) Window(off, n int64) (*Window, error) {
	if off < 0 || n < 0 || off+n > f.size || off+n < off {
		return nil, fmt.Errorf("mmapfile: window [%d,+%d) outside file of %d bytes", off, n, f.size)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Order matters: a closed file must answer ErrClosed even though
	// the mapping may already be released, and the mapping pointer may
	// only be inspected under the lock (unref nils it concurrently).
	if f.closed {
		return nil, ErrClosed
	}
	if f.data == nil {
		return nil, ErrNotMapped
	}
	f.refs++
	return &Window{f: f, b: f.data[off : off+n : off+n]}, nil
}

// Close releases the file: new ReadAt/Window calls fail with
// ErrClosed at once, and the descriptor and mapping are released once
// the last in-progress ReadAt returns and the last outstanding Window
// is closed. Close never invalidates bytes a live Window can still
// see, and closing twice is a no-op. The descriptor's close error is
// returned by whichever call releases it.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	return f.unref()
}

// unref drops one reference; at zero it unmaps the file and closes the
// descriptor, returning the close error.
func (f *File) unref() error {
	f.mu.Lock()
	f.refs--
	if f.refs > 0 {
		f.mu.Unlock()
		return nil
	}
	data := f.data
	f.data = nil
	f.mu.Unlock()
	if data != nil {
		unmapFile(data)
	}
	return f.f.Close()
}

// Window is one reference-counted zero-copy view of a mapped file.
type Window struct {
	f *File

	mu sync.Mutex
	b  []byte
}

// Bytes returns the window's view of the mapping; nil after Close. The
// slice must not be retained past Close.
func (w *Window) Bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b
}

// Close releases the window's reference on the mapping; closing twice
// is a no-op. When the file was already closed and this was the last
// reference, Close returns the descriptor's close error.
func (w *Window) Close() error {
	w.mu.Lock()
	released := w.b != nil
	w.b = nil
	w.mu.Unlock()
	if released {
		return w.f.unref()
	}
	return nil
}
