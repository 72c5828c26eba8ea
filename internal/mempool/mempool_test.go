package mempool

import "testing"

func TestClassGeometry(t *testing.T) {
	cases := []struct{ n, class int }{
		{1, 0}, {minClass, 0}, {minClass + 1, 1},
		{511, classFor(512)}, {512, classFor(512)},
		{4096, classFor(4096)}, {maxClass, numClasses - 1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
		if got := Get(c.n); len(got) != c.n {
			t.Errorf("Get(%d) len = %d", c.n, len(got))
		}
	}
	if classFor(0) != -1 || classFor(-1) != -1 || classFor(maxClass+1) != -1 {
		t.Errorf("out-of-range sizes must not map to a class")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	b := Get(1000)
	if len(b) != 1000 || cap(b) != 1024 {
		t.Fatalf("Get(1000): len %d cap %d", len(b), cap(b))
	}
	for i := range b {
		b[i] = byte(i)
	}
	Put(b)
	// The recycled buffer keeps its class capacity and full length on
	// the next Get of the same class.
	c := Get(700)
	if len(c) != 700 || cap(c) != 1024 {
		t.Fatalf("recycled Get(700): len %d cap %d", len(c), cap(c))
	}
}

func TestOversizeFallsThrough(t *testing.T) {
	b := Get(maxClass + 1)
	if len(b) != maxClass+1 {
		t.Fatalf("oversize Get len %d", len(b))
	}
	if pooled(b) {
		t.Fatalf("oversize buffer must not be pool-returnable")
	}
}

func TestPutCrossSizePanics(t *testing.T) {
	for _, bad := range [][]byte{
		make([]byte, 1000),       // cap not a class size
		Get(1024)[:500:500],      // sliced down past any class boundary
		make([]byte, maxClass*2), // above any class
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put(cap=%d) did not panic", cap(bad))
				}
			}()
			Put(bad)
		}()
	}
}

func TestArenaReuse(t *testing.T) {
	var a Arena
	if got := a.Bytes(100); len(got) != 100 {
		t.Fatalf("arena carve len %d", len(got))
	}
	bufs := a.Blocks(nil, 4, 512)
	if len(bufs) != 4 {
		t.Fatalf("arena blocks %d", len(bufs))
	}
	for i, b := range bufs {
		if len(b) != 512 {
			t.Fatalf("arena block %d len %d", i, len(b))
		}
		b[0] = byte(i)
	}
	// Blocks must not alias each other.
	for i, b := range bufs {
		if b[0] != byte(i) {
			t.Fatalf("arena blocks alias (block %d)", i)
		}
	}
	// After the high-water mark is reached, Reset+carve reuses the slab.
	a.Reset()
	mark := a.Bytes(100)
	a.Reset()
	again := a.Bytes(100)
	if &again[0] != &mark[0] {
		t.Fatalf("arena did not reuse its slab after Reset")
	}
}

// TestArenaSteadyStateZeroAlloc pins the arena's whole point: after
// warm-up, a burst-shaped carve pattern allocates nothing.
func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	var a Arena
	burst := func() {
		a.Reset()
		_ = a.Bytes(4096)
		_ = a.Bytes(40 * 8)
		bufs := a.Blocks(nil, 8, 512) // outer slice: measured separately below
		_ = bufs
	}
	burst() // reach the high-water mark
	var scratch [][]byte
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		_ = a.Bytes(4096)
		_ = a.Bytes(40 * 8)
		scratch = a.Blocks(scratch[:0], 8, 512)
	})
	if allocs != 0 {
		t.Fatalf("steady-state arena burst: %v allocs/op, want 0", allocs)
	}
}

// TestGetPutSteadyStateZeroAlloc pins the free-list fast path; it
// tolerates the occasional pool miss after a GC.
func TestGetPutSteadyStateZeroAlloc(t *testing.T) {
	Put(Get(4096))
	allocs := testing.AllocsPerRun(100, func() { Put(Get(4096)) })
	if allocs > 1 { // headroom: a GC between runs clears sync.Pool
		t.Fatalf("steady-state Get/Put: %v allocs/op", allocs)
	}
}
