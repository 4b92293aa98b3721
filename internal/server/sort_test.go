package server

import (
	"bytes"
	"cmp"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"testing"

	"mergepath/internal/wire"
)

// TestSortBinaryDifferential drives binary /v1/sort at p = 3 from empty
// up to 3·256K+1 elements (two runs per worker) and requires the
// reference sort's exact bytes: slices.Sort for int64, whose equal keys
// are equal bytes, and slices.SortStableFunc for float64 with ±0, ±Inf
// and subnormals, where -0 and +0 must keep their input order.
func TestSortBinaryDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, MaxBodyBytes: 32 << 20})
	rng := rand.New(rand.NewSource(61))
	domain := []float64{math.Inf(-1), -1.5, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1.5, math.Inf(1)}
	for _, n := range []int{0, 1, 2, 4097, 3<<18 + 1} {
		ints := make([]int64, n)
		floats := make([]float64, n)
		for i := range ints {
			ints[i] = rng.Int63() - rng.Int63()
			floats[i] = domain[rng.Intn(len(domain))]
			if i%2 == 0 {
				floats[i] = rng.NormFloat64()
			}
		}
		st, ct, body := doRaw(t, ts, "/v1/sort", wire.ContentType, wire.ContentType, wire.AppendInt64(nil, ints))
		if st != http.StatusOK || ct != wire.ContentType {
			t.Fatalf("int64 n=%d: status %d, Content-Type %q", n, st, ct)
		}
		slices.Sort(ints)
		if !bytes.Equal(body, wire.AppendInt64(nil, ints)) {
			t.Fatalf("int64 n=%d: reply differs from the reference sort", n)
		}
		st, ct, body = doRaw(t, ts, "/v1/sort", wire.ContentType, wire.ContentType, wire.AppendFloat64(nil, floats))
		if st != http.StatusOK || ct != wire.ContentType {
			t.Fatalf("float64 n=%d: status %d, Content-Type %q", n, st, ct)
		}
		slices.SortStableFunc(floats, cmp.Compare[float64])
		if !bytes.Equal(body, wire.AppendFloat64(nil, floats)) {
			t.Fatalf("float64 n=%d: reply differs from the stable reference sort", n)
		}
	}
}

// TestSortJSONNullAndEmpty: a null data field answers a null result and
// an empty one an empty array, byte for byte.
func TestSortJSONNullAndEmpty(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for body, want := range map[string]string{
		`{"data":null}`: `{"result":null}` + "\n",
		`{"data":[]}`:   `{"result":[]}` + "\n",
	} {
		st, _, got := doRaw(t, ts, "/v1/sort", "application/json", "", []byte(body))
		if st != http.StatusOK || string(got) != want {
			t.Fatalf("%s: status %d, body %q, want %q", body, st, got, want)
		}
	}
}

// TestSortBinaryAllocGate bounds what a warm binary /v1/sort of 256K
// int64 allocates, client and server together, at under 1 B/elem: the
// frame's arena holds the runs and the reply is sorted into a pooled
// arena, so no n-element buffer is allocated per request. A sort that
// allocates its own scratch costs 8 B/elem.
func TestSortBinaryAllocGate(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops pooled arenas at random under -race")
	}
	_, ts := newTestServer(t, Config{Workers: 2, MaxBodyBytes: 32 << 20})
	const n, requests = 1 << 18, 20
	rng := rand.New(rand.NewSource(62))
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int63()
	}
	body := wire.AppendInt64(nil, data)
	slices.Sort(data)
	want := wire.AppendInt64(nil, data)
	reply := make([]byte, len(want))
	client := ts.Client()
	post := func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sort", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if _, err := io.ReadFull(resp.Body, reply); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply, want) {
			t.Fatal("reply differs from the reference sort")
		}
	}
	// Warm the connection and the arena pools. sync.Pool keeps a
	// per-P private slot that other Ps cannot take from, so every P
	// needs its own pair of arenas before the pools stop missing.
	for i := 0; i < 10; i++ {
		post()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	perElem := float64(after.TotalAlloc-before.TotalAlloc) / float64(requests*n)
	t.Logf("%.3f B/elem allocated over %d warm sorts of %d elements", perElem, requests, n)
	if perElem >= 1 {
		t.Fatalf("warm binary sorts allocated %.2f B/elem, want < 1", perElem)
	}
}
