package voronoi

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkNew(b *testing.B) {
	for _, n := range []int{16, 64, 256, 512} {
		rng := rand.New(rand.NewSource(1))
		sites := randomSites(rng, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(sites); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
