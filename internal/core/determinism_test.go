package core

import (
	"reflect"
	"testing"

	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// TestLinkLoadDeterministic runs the same load analysis twice and requires
// identical reports. The regression this guards: summaries used to fold a
// load map in map-iteration order, so MaxLink (tie-broken by encounter
// order) and the mean (float addition is not associative) could differ
// between runs. The half shift loads many links equally, so the maximum is
// a many-way tie and an order-dependent tie-break cannot hide.
func TestLinkLoadDeterministic(t *testing.T) {
	for _, s := range Schemes() {
		sn := configured(t, 8, 2, s)
		flows := shift(sn.Tree, sn.Tree.Nodes()/2)
		a := staticLoad(t, sn, flows, nil)
		b := staticLoad(t, sn, flows, nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: reports differ across runs: %+v vs %+v", s.Name(), a, b)
		}
	}
}

// TestOptimizePathsDeterministic requires the greedy planner to make the
// same choices twice — its cost scan reads a float map, which must not
// depend on iteration order.
func TestOptimizePathsDeterministic(t *testing.T) {
	tr := topology.MustNew(4, 3)
	flows := traffic.AllToOne(tr, 0)
	s := NewMLID()
	a, err := OptimizePaths(tr, s, flows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OptimizePaths(tr, s, flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.dlid, b.dlid) {
		t.Fatal("planned DLID assignments differ across runs")
	}
}
