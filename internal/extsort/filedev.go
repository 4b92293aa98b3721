package extsort

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"mergepath/internal/fault"
	"mergepath/internal/lebytes"
)

// DeviceError is the typed failure every fallible FileDevice operation
// returns: which op failed ("read", "write", "sync"), on which file,
// wrapping the underlying cause. Callers that must distinguish a failed
// disk from wrong input match with errors.As; the jobs layer surfaces
// it as a failed job instead of wrong bytes.
type DeviceError struct {
	// Op is the failing operation: "read", "write" or "sync".
	Op string
	// Path is the backing file.
	Path string
	// Err is the underlying cause (wrapped).
	Err error
}

// Error formats the failure.
func (e *DeviceError) Error() string {
	return fmt.Sprintf("extsort: %s %s: %v", e.Op, e.Path, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *DeviceError) Unwrap() error { return e.Err }

// Fault-injection ops the device consults when an injector is attached
// (SetFault), keyed like the request-path ops so one -fault/-chaos spec
// drives disk havoc too:
//
//	disk.enospc     Write fails up front with ENOSPC-shaped error
//	disk.shortwrite Write persists only a prefix, then fails typed
//	disk.read       Read fails with an injected I/O error
//	disk.flip       a read returns data with one bit flipped (silent —
//	                only sealed-file checksums can catch it; also
//	                consulted by VerifiedReader)
//	disk.sync       Sync fails with an injected I/O error
const (
	// FaultOpENOSPC injects a full-disk write failure.
	FaultOpENOSPC = "disk.enospc"
	// FaultOpShortWrite injects a torn (partial) write.
	FaultOpShortWrite = "disk.shortwrite"
	// FaultOpRead injects a read I/O failure.
	FaultOpRead = "disk.read"
	// FaultOpFlip injects a read-side single-bit flip.
	FaultOpFlip = "disk.flip"
	// FaultOpSync injects an fsync failure.
	FaultOpSync = "disk.sync"
)

// errNoSpace is the injected ENOSPC shape (wrapping fault.ErrInjected so
// tests can classify injected vs real disk failures).
var errNoSpace = fmt.Errorf("%w: no space left on device", fault.ErrInjected)

// errReadFault is the injected read-failure shape.
var errReadFault = fmt.Errorf("%w: input/output error", fault.ErrInjected)

// RecordBytes is the on-disk size of one int64 record (little-endian).
const RecordBytes = 8

// DefaultFileBlockRecords is the default block size of a FileDevice:
// 4 KiB of records, matching a common filesystem block.
const DefaultFileBlockRecords = 4096 / RecordBytes

// FileDevice is a Device[int64] backed by a real file: records are 8-byte
// little-endian integers addressed by record offset, and every read or
// write is charged in whole blocks like the in-memory BlockDevice — so
// the external sort's I/O accounting holds whether the "next memory
// level" is simulated or a real disk. On a little-endian host Read and
// Write move records with one ReadAt/WriteAt over the slice's own bytes
// (internal/lebytes); any other host converts them one at a time
// through a reused scratch buffer, producing the same file bytes.
// Read/Write are not safe for concurrent use (the sort engine is
// single-threaded at the I/O layer); the I/O counters are atomic so
// metrics may sample them concurrently.
type FileDevice struct {
	f            *os.File
	path         string
	blockRecords int
	capacity     int
	reads        atomic.Uint64
	writes       atomic.Uint64
	syncs        atomic.Uint64
	portable     bool   // convert per record through buf (big-endian hosts; tests force it)
	buf          []byte // reused encode/decode scratch of the portable path
	fault        *fault.Injector
}

// SetFault attaches a fault injector consulted by Read/Write/Sync under
// the disk.* ops (chaos testing of the storage error paths). A nil
// injector — the default — is a no-op.
func (d *FileDevice) SetFault(inj *fault.Injector) { d.fault = inj }

// CreateFileDevice creates (or truncates) a file device at path holding
// capacity records. blockRecords <= 0 selects DefaultFileBlockRecords.
func CreateFileDevice(path string, capacity, blockRecords int) (*FileDevice, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("extsort: negative capacity %d", capacity)
	}
	if blockRecords <= 0 {
		blockRecords = DefaultFileBlockRecords
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("extsort: create device: %w", err)
	}
	if err := f.Truncate(int64(capacity) * RecordBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("extsort: size device: %w", err)
	}
	return &FileDevice{f: f, path: path, blockRecords: blockRecords, capacity: capacity, portable: !lebytes.Native()}, nil
}

// OpenFileDevice opens an existing record file as a device; its capacity
// is the file size in records. The file length must be a whole number of
// records. blockRecords <= 0 selects DefaultFileBlockRecords.
func OpenFileDevice(path string, blockRecords int) (*FileDevice, error) {
	if blockRecords <= 0 {
		blockRecords = DefaultFileBlockRecords
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("extsort: open device: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("extsort: stat device: %w", err)
	}
	if fi.Size()%RecordBytes != 0 {
		f.Close()
		return nil, fmt.Errorf("extsort: %s: size %d is not a whole number of %d-byte records", path, fi.Size(), RecordBytes)
	}
	return &FileDevice{f: f, path: path, blockRecords: blockRecords, capacity: int(fi.Size() / RecordBytes),
		portable: !lebytes.Native()}, nil
}

// Capacity returns the device size in records.
func (d *FileDevice) Capacity() int { return d.capacity }

// BlockRecords returns the block size in records.
func (d *FileDevice) BlockRecords() int { return d.blockRecords }

// Path returns the backing file's path.
func (d *FileDevice) Path() string { return d.path }

// bytesOf returns the file bytes of records s: s's own memory, or on the
// portable path the reused scratch buffer grown to len(s) records.
func (d *FileDevice) bytesOf(s []int64) []byte {
	if !d.portable {
		return lebytes.Of(s)
	}
	if cap(d.buf) < len(s)*RecordBytes {
		d.buf = make([]byte, len(s)*RecordBytes)
	}
	return d.buf[:len(s)*RecordBytes]
}

// Read copies len(dst) records starting at record offset off into dst,
// charging block reads. On error dst's contents are unspecified: the
// file may have been read straight into it.
func (d *FileDevice) Read(off int, dst []int64) error {
	if off < 0 || off+len(dst) > d.capacity {
		return fmt.Errorf("extsort: read [%d,%d) outside device of %d records", off, off+len(dst), d.capacity)
	}
	if len(dst) == 0 {
		return nil
	}
	if d.fault.Hit(FaultOpRead) {
		return &DeviceError{Op: "read", Path: d.path, Err: errReadFault}
	}
	buf := d.bytesOf(dst)
	if _, err := d.f.ReadAt(buf, int64(off)*RecordBytes); err != nil {
		return &DeviceError{Op: "read", Path: d.path, Err: err}
	}
	if d.fault.Hit(FaultOpFlip) {
		buf[0] ^= 1
	}
	if d.portable {
		lebytes.Get(dst, buf)
	}
	d.reads.Add(blocksSpanned(d.blockRecords, off, len(dst)))
	return nil
}

// Write copies src to the device at record offset off, charging block
// writes.
func (d *FileDevice) Write(off int, src []int64) error {
	if off < 0 || off+len(src) > d.capacity {
		return fmt.Errorf("extsort: write [%d,%d) outside device of %d records", off, off+len(src), d.capacity)
	}
	if len(src) == 0 {
		return nil
	}
	if d.fault.Hit(FaultOpENOSPC) {
		return &DeviceError{Op: "write", Path: d.path, Err: errNoSpace}
	}
	buf := d.bytesOf(src)
	if d.portable {
		lebytes.Put(buf, src)
	}
	if d.fault.Hit(FaultOpShortWrite) {
		// A torn write: persist only a prefix, then fail — the caller
		// must treat the whole range as unwritten, never as truncated-
		// but-fine data.
		if half := len(buf) / 2; half > 0 {
			_, _ = d.f.WriteAt(buf[:half], int64(off)*RecordBytes)
		}
		return &DeviceError{Op: "write", Path: d.path, Err: io.ErrShortWrite}
	}
	if _, err := d.f.WriteAt(buf, int64(off)*RecordBytes); err != nil {
		return &DeviceError{Op: "write", Path: d.path, Err: err}
	}
	d.writes.Add(blocksSpanned(d.blockRecords, off, len(src)))
	return nil
}

// Sync flushes the device's dirty pages to stable storage (fsync),
// counting the sync. The jobs layer calls it at seal points — after the
// final sorted write, before the result rename — per its fsync policy.
func (d *FileDevice) Sync() error {
	if d.fault.Hit(FaultOpSync) {
		return &DeviceError{Op: "sync", Path: d.path, Err: errReadFault}
	}
	if err := d.f.Sync(); err != nil {
		return &DeviceError{Op: "sync", Path: d.path, Err: err}
	}
	d.syncs.Add(1)
	return nil
}

// Syncs reports how many fsyncs the device has performed.
func (d *FileDevice) Syncs() uint64 { return d.syncs.Load() }

// Stats reports accumulated block I/O counts.
func (d *FileDevice) Stats() (reads, writes uint64) { return d.reads.Load(), d.writes.Load() }

// ResetStats zeroes the I/O counters.
func (d *FileDevice) ResetStats() { d.reads.Store(0); d.writes.Store(0) }

// Close closes the backing file (the file itself remains on disk).
func (d *FileDevice) Close() error { return d.f.Close() }

// Remove closes the backing file and deletes it from disk.
func (d *FileDevice) Remove() error {
	cerr := d.f.Close()
	rerr := os.Remove(d.path)
	if cerr != nil {
		return cerr
	}
	return rerr
}
