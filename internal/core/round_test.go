package core

import (
	"context"
	"math/rand"
	"testing"

	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

// TestMergeRound is the table test of the round primitive. Every row
// runs through both kernels (ordered and less-func) and checks the
// merged bytes, the balance of Elements across workers (each worker owns
// exactly its [w·total/p, (w+1)·total/p) slice of the output), the Pairs
// each worker touched, the clamp of p to the total, and cancellation.
func TestMergeRound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const (
		none   = iota
		before // ctx is done before the round starts
		during // the first comparison cancels ctx (less-func kernel only)
	)
	// sizes lists the (|A|, |B|) of each pair of a row.
	cases := []struct {
		name   string
		sizes  [][2]int
		p      int
		cancel int
	}{
		{"one pair", [][2]int{{1000, 1337}}, 4, none},
		{"one pair p=1", [][2]int{{500, 20}}, 1, none},
		{"many pairs", [][2]int{{10, 3}, {0, 40}, {200, 100}, {7, 0}, {64, 64}}, 3, none},
		{"skewed", [][2]int{{4, 4}, {4, 4}, {50000, 50000}, {4, 4}, {4, 4}}, 8, none},
		{"crosses chunks", [][2]int{{roundChunk + 5, 2*roundChunk + 1}, {3, 3}}, 2, none},
		{"empty pairs", [][2]int{{0, 0}, {5, 0}, {0, 0}, {0, 6}, {0, 0}}, 3, none},
		{"all empty", [][2]int{{0, 0}, {0, 0}}, 4, none},
		{"no pairs", nil, 2, none},
		{"p > total", [][2]int{{2, 1}, {0, 1}}, 16, none},
		{"canceled before", [][2]int{{roundChunk, roundChunk}}, 2, before},
		// One worker finishes the chunk it is in and stops before the next.
		{"canceled during", [][2]int{{2 * roundChunk, 2 * roundChunk}}, 1, during},
	}
	for _, tc := range cases {
		for _, kernel := range []string{"ordered", "func"} {
			if tc.cancel == during && kernel == "ordered" {
				continue // only a less func can cancel from inside the merge
			}
			t.Run(tc.name+"/"+kernel, func(t *testing.T) {
				pairs := make([]Pair[int32], len(tc.sizes))
				offsets := make([]int, len(tc.sizes)+1)
				for i, sz := range tc.sizes {
					a := workload.SortedUniform32(rng, sz[0])
					b := workload.SortedUniform32(rng, sz[1])
					pairs[i] = Pair[int32]{A: a, B: b, Out: make([]int32, len(a)+len(b))}
					offsets[i+1] = offsets[i] + len(a) + len(b)
				}
				total := offsets[len(pairs)]
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if tc.cancel == before {
					cancel()
				}
				run := func(ws []WorkerStat) ([]WorkerStat, error) {
					if kernel == "ordered" {
						return MergeRound(ctx, pairs, tc.p, ws)
					}
					return MergeRoundFunc(ctx, pairs, tc.p, ws, func(x, y int32) bool {
						if tc.cancel == during {
							cancel()
						}
						return x < y
					})
				}
				ws, err := run(make([]WorkerStat, tc.p))
				switch tc.cancel {
				case before:
					if err != context.Canceled || len(ws) != 0 {
						t.Fatalf("%d stats, err %v; want none, context.Canceled", len(ws), err)
					}
					return
				case during:
					if err != context.Canceled || len(ws) != 1 || ws[0].Elements != roundChunk || ws[0].Pairs != 1 {
						t.Fatalf("stats %+v, err %v; want one worker with one chunk, context.Canceled", ws, err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				for i, pr := range pairs {
					if !verify.Equal(pr.Out, verify.ReferenceMerge(pr.A, pr.B)) {
						t.Fatalf("pair %d: wrong merge", i)
					}
				}
				if want := min(tc.p, total); len(ws) != want {
					t.Fatalf("%d workers engaged, want %d", len(ws), want)
				}
				sum := 0
				for w, st := range ws {
					sum += st.Elements
					lo, hi := w*total/len(ws), (w+1)*total/len(ws)
					if st.Elements != hi-lo {
						t.Errorf("worker %d: %d elements, want %d", w, st.Elements, hi-lo)
					}
					wantPairs := 0
					for i := range pairs {
						if offsets[i] < offsets[i+1] && offsets[i] < hi && offsets[i+1] > lo {
							wantPairs++
						}
					}
					if st.Pairs != wantPairs {
						t.Errorf("worker %d: %d pairs, want %d", w, st.Pairs, wantPairs)
					}
				}
				if sum != total {
					t.Fatalf("elements sum to %d, want %d", sum, total)
				}
				// Untimed rounds return no stats.
				if ws, err := run(nil); ws != nil || err != nil {
					t.Fatalf("untimed round returned %v, %v", ws, err)
				}
			})
		}
	}
}

func TestMergeRoundPanics(t *testing.T) {
	good := []Pair[int32]{{A: []int32{1}, B: []int32{2}, Out: make([]int32, 2)}}
	for name, f := range map[string]func(){
		"p0":       func() { MergeRound(context.Background(), good, 0, nil) },
		"short ws": func() { MergeRound(context.Background(), good, 3, make([]WorkerStat, 2)) },
		"out": func() {
			MergeRound(context.Background(), []Pair[int32]{{A: []int32{1}, Out: make([]int32, 2)}}, 1, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
