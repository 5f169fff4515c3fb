package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestSharedCacheHitMissStats(t *testing.T) {
	c := NewSharedCache(8)
	if c.Get("a") != nil {
		t.Fatal("hit on empty cache")
	}
	res := &core.EvalResult{Matches: 3}
	c.Put("a", res)
	if got := c.Get("a"); got != res {
		t.Fatalf("Get returned %v, want the stored result", got)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1 hit / 1 miss", hits, misses)
	}
}

// The cache must tolerate concurrent readers and writers (perfbench
// shares one across multi-run waves); run with -race.
func TestSharedCacheConcurrent(t *testing.T) {
	c := NewSharedCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%100)
				if i%3 == 0 {
					c.Put(key, &core.EvalResult{Matches: i})
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
}
