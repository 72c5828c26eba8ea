package steghide

import (
	"context"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
)

// benchC1 builds a Construction 1 agent at the given utilization with
// one 32-block file to update, returning the file's handle too.
func benchC1(b *testing.B, utilization float64) (*NonVolatileAgent, *stegfs.File) {
	b.Helper()
	vol, err := stegfs.Format(blockdev.NewMem(512, 8192),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("bench")})
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewNonVolatile(vol, []byte("s"), prng.NewFromUint64(1))
	if err != nil {
		b.Fatal(err)
	}
	f, err := a.Create("u", "/f")
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Write(context.Background(), "/f", f, make([]byte, 32*vol.PayloadSize()), 0); err != nil {
		b.Fatal(err)
	}
	first, n := a.Source().SpaceBounds()
	span := n - first
	for span-a.Source().FreeCount() < uint64(float64(span)*utilization) {
		if _, err := a.Source().AcquireRandom(); err != nil {
			b.Fatal(err)
		}
	}
	return a, f
}

// BenchmarkFigure6Update measures the full Figure-6 data update
// (camouflage draws included) at the paper's utilization endpoints.
func BenchmarkFigure6Update(b *testing.B) {
	for _, util := range []float64{0.1, 0.5, 0.9} {
		b.Run(map[float64]string{0.1: "util10", 0.5: "util50", 0.9: "util90"}[util], func(b *testing.B) {
			a, f := benchC1(b, util)
			ps := a.Vol().PayloadSize()
			chunk := make([]byte, ps)
			rng := prng.NewFromUint64(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := uint64(rng.Intn(32)) * uint64(ps)
				if err := a.Write(context.Background(), "/f", f, chunk, off); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(a.Stats().ExpectedOverhead(), "iterations/update")
		})
	}
}

// BenchmarkDummyUpdate measures the idle-traffic primitive.
func BenchmarkDummyUpdate(b *testing.B) {
	a, _ := benchC1(b, 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.DummyUpdateBurst(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVolatileSessionWrite measures Construction 2's end-to-end
// write path (registry bookkeeping included).
func BenchmarkVolatileSessionWrite(b *testing.B) {
	ctx := context.Background()
	vol, err := stegfs.Format(blockdev.NewMem(512, 8192),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("b2")})
	if err != nil {
		b.Fatal(err)
	}
	a := NewVolatile(vol, prng.NewFromUint64(3))
	s, err := a.Login("u", "pw")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.CreateDummy("/d", 256); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Create("/f"); err != nil {
		b.Fatal(err)
	}
	ps := vol.PayloadSize()
	if err := s.Write(ctx, "/f", make([]byte, 32*ps), 0); err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, ps)
	rng := prng.NewFromUint64(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(rng.Intn(32)) * uint64(ps)
		if err := s.Write(ctx, "/f", chunk, off); err != nil {
			b.Fatal(err)
		}
	}
}
