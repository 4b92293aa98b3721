package extsort

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mergepath/internal/fault"
	"mergepath/internal/lebytes"
)

func TestFileDeviceRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dev.bin")
	d, err := CreateFileDevice(path, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Capacity() != 64 || d.BlockRecords() != 8 || d.Path() != path {
		t.Fatal("geometry wrong")
	}
	if err := d.Write(0, []int64{1, -2, 3}); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, 3)
	if err := d.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Fatalf("roundtrip: %v", got)
	}
	r, w := d.Stats()
	if r != 1 || w != 1 {
		t.Fatalf("io counts: r=%d w=%d", r, w)
	}
	// Straddling a block boundary charges both blocks, like BlockDevice.
	d.ResetStats()
	if err := d.Write(6, []int64{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if _, w := d.Stats(); w != 2 {
		t.Fatalf("straddling write charged %d blocks", w)
	}
	// Zero-length I/O is free and legal.
	if err := d.Read(0, nil); err != nil {
		t.Fatal(err)
	}
	if r, _ := d.Stats(); r != 0 {
		t.Fatalf("empty read charged %d", r)
	}
}

func TestFileDeviceErrors(t *testing.T) {
	dir := t.TempDir()
	d, err := CreateFileDevice(filepath.Join(dir, "dev.bin"), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Read(2, make([]int64, 3)); err == nil {
		t.Fatal("oob read should error")
	}
	if err := d.Write(-1, make([]int64, 1)); err == nil {
		t.Fatal("oob write should error")
	}
	if _, err := CreateFileDevice(filepath.Join(dir, "dev2.bin"), -1, 2); err == nil {
		t.Fatal("negative capacity should error")
	}
	// A file that is not a whole number of records cannot be opened.
	ragged := filepath.Join(dir, "ragged.bin")
	if err := os.WriteFile(ragged, make([]byte, 12), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDevice(ragged, 0); err == nil {
		t.Fatal("ragged file should error")
	}
	if _, err := OpenFileDevice(filepath.Join(dir, "missing.bin"), 0); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestFileDeviceOpenExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dev.bin")
	d, err := CreateFileDevice(path, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, []int64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenFileDevice(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Capacity() != 10 {
		t.Fatalf("capacity from size: %d", d2.Capacity())
	}
	if d2.BlockRecords() != DefaultFileBlockRecords {
		t.Fatalf("default block size: %d", d2.BlockRecords())
	}
	got := make([]int64, 10)
	if err := d2.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 || got[9] != 14 {
		t.Fatalf("persisted contents: %v", got)
	}
	if err := d2.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Remove should delete the backing file")
	}
}

// devicePaths lists the record paths a FileDevice can take on this
// host: the zero-copy view on little-endian hosts, and always the
// portable per-record conversion, forced through the unexported field.
func devicePaths() []bool {
	if lebytes.Native() {
		return []bool{false, true}
	}
	return []bool{true}
}

// TestFileDevicePathsSameBytes writes the same records through each
// path and checks the spill file holds exactly the little-endian
// encoding, that every path reads back what any path wrote, and that
// the disk.flip and disk.shortwrite faults act on the same bytes.
func TestFileDevicePathsSameBytes(t *testing.T) {
	const n = 3*DefaultFileBlockRecords + 37
	rng := rand.New(rand.NewSource(17))
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(rng.Uint64())
	}
	src[0], src[1], src[2] = math.MinInt64, math.MaxInt64, 0
	want := make([]byte, n*RecordBytes)
	for i, v := range src {
		binary.LittleEndian.PutUint64(want[i*RecordBytes:], uint64(v))
	}
	dir := t.TempDir()
	var files []string
	for _, portable := range devicePaths() {
		path := filepath.Join(dir, fmt.Sprintf("dev-portable=%v.bin", portable))
		d, err := CreateFileDevice(path, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		d.portable = portable
		// Uneven pieces: straddling blocks, an empty write, a tail.
		for _, cut := range [][2]int{{0, 5}, {5, 5}, {5, 700}, {700, 1200}, {1200, n}} {
			if err := d.Write(cut[0], src[cut[0]:cut[1]]); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("portable=%v: file bytes differ from the little-endian encoding", portable)
		}
		files = append(files, path)
	}
	for _, path := range files {
		for _, portable := range devicePaths() {
			d, err := OpenFileDevice(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			d.portable = portable
			got := make([]int64, n)
			if err := d.Read(0, got[:n/2]); err != nil {
				t.Fatal(err)
			}
			if err := d.Read(n/2, got[n/2:]); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, src) {
				t.Fatalf("%s read with portable=%v: records differ", filepath.Base(path), portable)
			}
			if r, _ := d.Stats(); r != uint64(blocksSpanned(d.BlockRecords(), 0, n/2)+blocksSpanned(d.BlockRecords(), n/2, n-n/2)) {
				t.Fatalf("portable=%v: charged %d block reads", portable, r)
			}
			d.Close()
		}
	}

	// Faults: a flipped read and a torn write give the same records and
	// file bytes on every path.
	var flipped [][]int64
	var torn [][]byte
	for _, portable := range devicePaths() {
		path := filepath.Join(dir, fmt.Sprintf("fault-portable=%v.bin", portable))
		d, err := CreateFileDevice(path, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		d.portable = portable
		if err := d.Write(0, src); err != nil {
			t.Fatal(err)
		}
		d.SetFault(mustParse(t, FaultOpFlip+":error=1"))
		got := make([]int64, 8)
		if err := d.Read(0, got); err != nil {
			t.Fatal(err)
		}
		flipped = append(flipped, got)
		d.SetFault(mustParse(t, FaultOpShortWrite+":error=1"))
		zeros := make([]int64, 100)
		if err := d.Write(10, zeros); err == nil {
			t.Fatal("short write reported success")
		}
		d.Close()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		torn = append(torn, b)
	}
	if got := flipped[0][0]; got != src[0]^1 {
		t.Fatalf("flip: first record %#x, want %#x", got, src[0]^1)
	}
	if !slices.Equal(flipped[0][1:], src[1:8]) {
		t.Fatal("flip touched more than the first record's low bit")
	}
	if wantTorn := append(append(append([]byte{}, want[:10*RecordBytes]...), make([]byte, 50*RecordBytes)...), want[60*RecordBytes:]...); !bytes.Equal(torn[0], wantTorn) {
		t.Fatal("short write did not persist exactly the first half of the range")
	}
	for i := 1; i < len(flipped); i++ {
		if !slices.Equal(flipped[i], flipped[0]) || !bytes.Equal(torn[i], torn[0]) {
			t.Fatal("fault results differ between the zero-copy and portable paths")
		}
	}
}

func mustParse(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	inj, err := fault.Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}
