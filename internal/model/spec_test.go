package model

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestFromSpecErrorPathsClearPooledIndex alternates failing and valid
// specs on concurrent goroutines (run it under -race): every failure
// returns its pooled name index cleared, so the next FromSpec builds the
// same tree as a clean build, and afterwards no pooled map holds a name.
func TestFromSpecErrorPathsClearPooledIndex(t *testing.T) {
	good := randomLayoutSpec(rand.New(rand.NewSource(3)))
	ref, err := FromSpec(good)
	if err != nil {
		t.Fatal(err)
	}
	want := ToSpec(ref, "")

	dup := *good
	dup.Sensors = append(slices.Clone(good.Sensors), SpecSensor{Name: good.CRUs[1].Name, Parent: "c0", Satellite: "A"})
	forward := *good
	forward.CRUs = append(slices.Clone(good.CRUs), SpecCRU{Name: "late", Parent: "later"}, SpecCRU{Name: "later", Parent: "c0"})
	unknown := *good
	unknown.Sensors = append(slices.Clone(good.Sensors), SpecSensor{Name: "stray", Parent: "c0", Satellite: "nowhere"})
	bad := []struct {
		spec *Spec
		msg  string
	}{
		{&dup, "duplicate node name"},
		{&forward, "before it is defined"},
		{&unknown, "unknown satellite"},
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, b := range bad {
					if _, err := FromSpec(b.spec); err == nil || !strings.Contains(err.Error(), b.msg) {
						t.Errorf("FromSpec: err %v, want one containing %q", err, b.msg)
						return
					}
					tree, err := FromSpec(good)
					if err != nil {
						t.Errorf("FromSpec after a %q failure: %v", b.msg, err)
						return
					}
					if got := ToSpec(tree, ""); !reflect.DeepEqual(got, want) {
						t.Errorf("FromSpec after a %q failure builds a different tree", b.msg)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	held := make([]*buildScratch, 8)
	for i := range held {
		held[i] = builds.Get()
		if len(held[i].sats) != 0 || len(held[i].names) != 0 {
			t.Errorf("pooled scratch holds %d satellite and %d node names", len(held[i].sats), len(held[i].names))
		}
	}
	for _, sc := range held {
		builds.Put(sc)
	}
}
