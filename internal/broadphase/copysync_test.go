package broadphase

import (
	"reflect"
	"sync"
	"testing"
)

// TestNoByValueSyncFields is the regression test for the sync.Pool copy
// hazard: the sweep used to embed its scratch pool by value, so
// any copy of the struct silently duplicated pool state (and vet's
// copylocks only fires on an actual copy expression, which reuse
// patterns like CloneInto-style helpers can introduce later without
// touching this package). Sync primitives in long-lived index structs
// must be held by pointer; the atmlint syncfield analyzer enforces the
// same rule statically across the repo.
func TestNoByValueSyncFields(t *testing.T) {
	syncTypes := map[reflect.Type]bool{
		reflect.TypeOf(sync.Pool{}):      true,
		reflect.TypeOf(sync.Mutex{}):     true,
		reflect.TypeOf(sync.RWMutex{}):   true,
		reflect.TypeOf(sync.Once{}):      true,
		reflect.TypeOf(sync.WaitGroup{}): true,
		reflect.TypeOf(sync.Map{}):       true,
		reflect.TypeOf(sync.Cond{}):      true,
	}
	var check func(t *testing.T, typ reflect.Type, path string)
	check = func(t *testing.T, typ reflect.Type, path string) {
		if typ.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			fp := path + "." + f.Name
			if syncTypes[f.Type] {
				t.Errorf("%s holds %s by value; copies of the struct would duplicate its state — hold it by pointer", fp, f.Type)
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				check(t, f.Type, fp)
			}
		}
	}
	for _, src := range []PairSource{
		NewBrute(), NewSweep(), newBinnedSweep(), NewCounted(NewSweep()),
	} {
		typ := reflect.TypeOf(src).Elem()
		check(t, typ, typ.Name())
	}
}

// TestScratchPoolSharedAcrossCopies pins the fix's behaviour: because
// the pool is held by pointer, a shallow copy of the index struct
// shares scratch state with the original instead of forking it.
func TestScratchPoolSharedAcrossCopies(t *testing.T) {
	s := NewSweep()
	dup := *s
	if s.scratch != dup.scratch {
		t.Fatal("copied Sweep does not share the scratch pool")
	}
}
