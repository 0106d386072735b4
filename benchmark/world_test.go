package main

import (
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

func TestWorldIsIdenticalOnEveryCall(t *testing.T) {
	a, err := BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorld()
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("two BuildWorld calls differ: %x vs %x", a.Digest(), b.Digest())
	}
	for name, got := range map[string][2]int{
		"rules": {len(a.Rules), worldRules}, "ring": {len(a.Ring), worldRing},
		"train": {len(a.Train), worldTrain}, "valid": {len(a.Valid), worldValid},
		"pool": {len(a.Pool), worldPool}, "hot": {len(a.Hot), worldHot},
	} {
		if got[0] != got[1] {
			t.Errorf("%s: %d, want %d", name, got[0], got[1])
		}
	}
	if worldPool&(worldPool-1) != 0 {
		t.Errorf("pool size %d is not a power of two: the unique walk needs one", worldPool)
	}
}

func TestWorldRulebaseHasExactly10000ActiveRules(t *testing.T) {
	w, err := world()
	if err != nil {
		t.Fatal(err)
	}
	rb := core.NewRulebase()
	if err := rb.AddAll(w.CloneRules(), "test"); err != nil {
		t.Fatal(err)
	}
	_, active := rb.ActiveView()
	if len(active) != 10000 {
		t.Fatalf("%d active rules, want exactly 10000", len(active))
	}
	seen := map[int]bool{}
	for _, i := range w.Ring {
		r := w.Rules[i]
		if r.Kind != core.Whitelist || r.Provenance != "bench-world" {
			t.Errorf("ring rule %d is %s/%s, want a generated whitelist rule", i, r.Kind, r.Provenance)
		}
		if seen[i] {
			t.Errorf("ring names rule %d twice", i)
		}
		seen[i] = true
	}
}

func TestCloneRulesLeavesPrototypesUntouched(t *testing.T) {
	w, err := world()
	if err != nil {
		t.Fatal(err)
	}
	before := w.Digest()
	rb := core.NewRulebase()
	if err := rb.AddAll(w.CloneRules(), "test"); err != nil {
		t.Fatal(err)
	}
	if err := rb.Disable(rb.All()[w.Ring[0]].ID, "test", ""); err != nil {
		t.Fatal(err)
	}
	for i, r := range w.Rules {
		if r.ID != "" || r.Status != core.Active {
			t.Fatalf("prototype %d was touched by a set-up: id %q status %s", i, r.ID, r.Status)
		}
	}
	if w.Digest() != before {
		t.Fatal("world digest changed after a set-up")
	}
}

// The system under test is built from a sutConfig, the world and rule
// clones: none of them can carry the run's seed or the workload's name.
func TestSUTNeverSeesSeedOrName(t *testing.T) {
	cfg := reflect.TypeOf(sutConfig{})
	for i := 0; i < cfg.NumField(); i++ {
		if cfg.Field(i).Type.Kind() != reflect.Bool {
			t.Errorf("sutConfig.%s is %s: only bools, so that no seed or name fits in", cfg.Field(i).Name, cfg.Field(i).Type)
		}
	}
	build := reflect.TypeOf(buildSUT)
	want := []reflect.Type{cfg, reflect.TypeOf(&World{}), reflect.TypeOf([]*core.Rule(nil)),
		reflect.TypeOf(0), reflect.TypeOf("")} // the string is the WAL directory
	if build.NumIn() != len(want) {
		t.Fatalf("buildSUT takes %d arguments, want %d", build.NumIn(), len(want))
	}
	for i, w := range want {
		if build.In(i) != w {
			t.Errorf("buildSUT argument %d is %s, want %s", i, build.In(i), w)
		}
	}
	world := reflect.TypeOf(World{})
	for i := 0; i < world.NumField(); i++ {
		switch world.Field(i).Type {
		case reflect.TypeOf([]*core.Rule(nil)), reflect.TypeOf([]int(nil)), reflect.TypeOf([]*catalog.Item(nil)):
		default:
			t.Errorf("World.%s is %s: the world holds rules, ring indexes and items only", world.Field(i).Name, world.Field(i).Type)
		}
	}
}
