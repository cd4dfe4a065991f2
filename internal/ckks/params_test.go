package ckks

import (
	"slices"
	"sync"
	"testing"

	"xehe/internal/poly"
)

// TestGaloisPermutationConcurrentFirstUse hammers the permutation
// cache of fresh parameters from 8 goroutines that all meet every
// table for the first time together (scheduler workers do exactly this
// on the first rotation after start-up): every caller must get the
// correct table, and the same one — run under -race by `make test-race`.
func TestGaloisPermutationConcurrentFirstUse(t *testing.T) {
	params := TestParameters()
	steps := []int{1, -1, 2, -2, 3, 64, -64, 1000}
	const workers = 8
	got := make([][][]uint32, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, k := range steps {
				got[w] = append(got[w], params.GaloisPermutation(params.GaloisElement(k)))
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, k := range steps {
		want := poly.GaloisPermutationNTT(params.N, params.GaloisElement(k))
		for w := range got {
			if !slices.Equal(got[w][i], want) {
				t.Fatalf("worker %d got a wrong table for step %d", w, k)
			}
			if &got[w][i][0] != &got[0][i][0] {
				t.Errorf("worker %d holds its own copy of the step-%d table", w, k)
			}
		}
	}
}
