package voronoi

import (
	"fmt"
	"math/rand"
	"testing"

	"waggle/internal/geom"
)

func BenchmarkNew(b *testing.B) {
	for _, n := range []int{16, 64, 256, 512} {
		rng := rand.New(rand.NewSource(1))
		sites := randomSites(rng, n)
		b.Run(fmt.Sprintf("pruned/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// newPruned directly, so small n measures the pruned
				// path New would route to the scan.
				if _, err := newPruned(sites); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("brute/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := newBrute(sites); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLocate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	d, err := New(randomSites(rng, 64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Locate(geom.Pt(float64(i%100), float64(i%97)))
	}
}
