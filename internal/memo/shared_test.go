package memo

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLookupDoesNotMutate pins the tentpole contract: probing a table —
// hit, miss-in-bucket, miss-no-bucket, unknown type — leaves it
// byte-identical. Combined with the -race test below this is what lets
// one table serve a whole fleet.
func TestLookupDoesNotMutate(t *testing.T) {
	table := BuildSnip(synthProfile(64), selection())
	before := make(map[*Bucket][]*SnipEntry)
	for _, byEvent := range table.buckets {
		for _, b := range byEvent {
			before[b] = slices.Clone(b.Order)
		}
	}
	rowsBefore, sizeBefore := table.Rows(), table.Size()

	resolvers := []Resolver{
		hitResolver(7), // hit
		func(name string) (uint64, bool) { return 9999, true }, // miss in bucket
		func(name string) (uint64, bool) { return 0, false },   // nothing resolves
	}
	for i := 0; i < 100; i++ {
		for _, r := range resolvers {
			table.Lookup("tap", r)
			table.Lookup("vsync", r) // unknown type
		}
	}
	if table.Rows() != rowsBefore || table.Size() != sizeBefore {
		t.Fatal("lookup changed table shape")
	}
	for et, byEvent := range table.buckets {
		for ek, b := range byEvent {
			order, ok := before[b]
			if !ok || len(order) != len(b.Order) {
				t.Fatalf("bucket %s/%d changed", et, ek)
			}
			for i := range order {
				if order[i] != b.Order[i] {
					t.Fatalf("bucket %s/%d entry %d replaced", et, ek, i)
				}
			}
		}
	}
}

// TestSharedConcurrentLookupAndSwap hammers one Shared table from 8+
// goroutines while another goroutine performs live OTA swaps — the
// acceptance gate for fleet-scale serving. Run under -race (ci.sh gates
// ./internal/memo with the race detector).
func TestSharedConcurrentLookupAndSwap(t *testing.T) {
	tables := []*SnipTable{
		BuildSnip(synthProfile(256), selection()),
		BuildSnip(synthProfile(512), selection()),
		BuildSnip(synthProfile(1024), selection()),
	}
	shared := NewShared(tables[0])
	if shared.Version() != 1 {
		t.Fatalf("initial version %d", shared.Version())
	}

	readers := runtime.GOMAXPROCS(0)
	if readers < 8 {
		readers = 8
	}
	const perReader = 20_000
	var wg sync.WaitGroup
	var totalHits atomic.Int64
	start := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			var st LookupStats
			for i := 0; i < perReader; i++ {
				tab := shared.Load()
				_, p, c, ok := tab.Lookup("tap", hitResolver((g*perReader+i)%2048))
				st.Observe(p, c, ok)
			}
			if st.Lookups != perReader {
				t.Errorf("reader %d made %d lookups", g, st.Lookups)
			}
			totalHits.Add(st.Hits)
		}(g)
	}

	// The swapper performs multiple live OTA refreshes while readers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 6; i++ {
			shared.Swap(tables[i%len(tables)])
		}
	}()
	close(start)
	wg.Wait()
	<-done

	if shared.Swaps() < 1 {
		t.Fatal("no live swap happened")
	}
	if shared.Version() != 7 {
		t.Fatalf("version %d after 6 swaps, want 7", shared.Version())
	}
	if !shared.Load().Frozen() {
		t.Fatal("published table not frozen")
	}
	if totalHits.Load() == 0 {
		t.Fatal("no reader ever hit — resolver or table broken")
	}
}

// TestSharedNilInitial covers the cold-start shape: no table published
// until the first OTA arrives.
func TestSharedNilInitial(t *testing.T) {
	s := NewShared(nil)
	if s.Load() != nil || s.Version() != 0 {
		t.Fatal("empty Shared not empty")
	}
	v := s.Swap(BuildSnip(synthProfile(16), selection()))
	if v != 1 || s.Load() == nil {
		t.Fatalf("first swap version %d", v)
	}
}
