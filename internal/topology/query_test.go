package topology

import (
	"testing"
)

// mustNode is a test helper converting digit labels to NodeIDs.
func mustNode(t *testing.T, tr *Tree, d ...int) NodeID {
	t.Helper()
	id, err := tr.NodeFromDigits(d)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestPaperGCPAndLCA verifies the paper's Definitions 1-4 worked example in
// the 4-port 3-tree: gcp(P(100), P(111)) = "1", lca = {SW<10,1>, SW<11,1>},
// both are in gcpg("1", 1) which has 4 members, ranks 0 and 3, PIDs 4 and 7.
func TestPaperGCPAndLCA(t *testing.T) {
	tr := MustNew(4, 3)
	a := mustNode(t, tr, 1, 0, 0)
	b := mustNode(t, tr, 1, 1, 1)

	if alpha := tr.GCPLen(a, b); alpha != 1 {
		t.Fatalf("GCPLen = %d, want 1", alpha)
	}
	if gcp := tr.GCP(a, b); len(gcp) != 1 || gcp[0] != 1 {
		t.Fatalf("GCP = %v, want [1]", gcp)
	}

	lcas := tr.LCAs(a, b)
	if len(lcas) != 2 {
		t.Fatalf("LCAs = %d switches, want 2", len(lcas))
	}
	labels := map[string]bool{}
	for _, s := range lcas {
		labels[tr.SwitchLabel(s)] = true
	}
	if !labels["SW<10,1>"] || !labels["SW<11,1>"] {
		t.Fatalf("LCAs = %v, want {SW<10,1>, SW<11,1>}", labels)
	}

	group, err := tr.GCPG([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(group) != 4 || tr.GCPGSize(1) != 4 {
		t.Fatalf("gcpg(1,1) size = %d/%d, want 4", len(group), tr.GCPGSize(1))
	}
	want := []NodeID{
		mustNode(t, tr, 1, 0, 0), mustNode(t, tr, 1, 0, 1),
		mustNode(t, tr, 1, 1, 0), mustNode(t, tr, 1, 1, 1),
	}
	for i, w := range want {
		if group[i] != w {
			t.Fatalf("gcpg member %d = %d, want %d", i, group[i], w)
		}
	}

	if r := tr.Rank(a, 1); r != 0 {
		t.Errorf("rank(P(100), alpha=1) = %d, want 0", r)
	}
	if r := tr.Rank(b, 1); r != 3 {
		t.Errorf("rank(P(111), alpha=1) = %d, want 3", r)
	}
	if tr.PID(a) != 4 || tr.PID(b) != 7 {
		t.Errorf("PIDs = %d,%d, want 4,7", tr.PID(a), tr.PID(b))
	}
}

func TestGCPLenIdenticalAndDisjoint(t *testing.T) {
	tr := MustNew(4, 3)
	a := mustNode(t, tr, 2, 1, 0)
	if got := tr.GCPLen(a, a); got != 3 {
		t.Errorf("GCPLen(a,a) = %d, want n=3", got)
	}
	b := mustNode(t, tr, 3, 1, 0)
	if got := tr.GCPLen(a, b); got != 0 {
		t.Errorf("GCPLen disjoint = %d, want 0", got)
	}
}

func TestLCACount(t *testing.T) {
	for _, tr := range testTrees() {
		for a := 0; a < tr.Nodes(); a++ {
			for b := 0; b < tr.Nodes(); b++ {
				if a == b {
					continue
				}
				alpha := tr.GCPLen(NodeID(a), NodeID(b))
				lcas := tr.LCAs(NodeID(a), NodeID(b))
				want := tr.PathCount(NodeID(a), NodeID(b))
				if int64(len(lcas)) != want {
					t.Fatalf("%s: |lca(%d,%d)| = %d, want %d (alpha=%d)",
						tr, a, b, len(lcas), want, alpha)
				}
				for _, s := range lcas {
					if tr.SwitchLevel(s) != alpha {
						t.Fatalf("%s: lca %s not at level %d", tr, tr.SwitchLabel(s), alpha)
					}
					d, _ := tr.SwitchDigits(s)
					for i := 0; i < alpha; i++ {
						if d[i] != tr.NodeDigit(NodeID(a), i) {
							t.Fatalf("%s: lca %s prefix mismatch", tr, tr.SwitchLabel(s))
						}
					}
				}
			}
			if tr.Nodes() > 32 {
				break // keep the quadratic sweep bounded on larger trees
			}
		}
	}
}

func TestLCAsIdenticalNodes(t *testing.T) {
	tr := MustNew(4, 2)
	n := mustNode(t, tr, 2, 1)
	lcas := tr.LCAs(n, n)
	sw, _ := tr.NodeAttachment(n)
	if len(lcas) != 1 || lcas[0] != sw {
		t.Errorf("LCAs(n,n) = %v, want [%d]", lcas, sw)
	}
}

func TestGCPGSizes(t *testing.T) {
	tr := MustNew(8, 3)
	if got := tr.GCPGSize(0); got != tr.Nodes() {
		t.Errorf("GCPGSize(0) = %d, want %d", got, tr.Nodes())
	}
	if got := tr.GCPGSize(1); got != 16 { // (8/2)^(3-1)
		t.Errorf("GCPGSize(1) = %d, want 16", got)
	}
	if got := tr.GCPGSize(3); got != 1 {
		t.Errorf("GCPGSize(3) = %d, want 1", got)
	}
	all, err := tr.GCPG(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != tr.Nodes() {
		t.Errorf("GCPG(nil) = %d nodes, want %d", len(all), tr.Nodes())
	}
	for i, id := range all {
		if int(id) != i {
			t.Fatalf("GCPG(nil) not in PID order at %d: %d", i, id)
		}
	}
	if _, err := tr.GCPG([]int{0, 0, 0, 0}); err == nil {
		t.Error("over-long prefix: expected error")
	}
}

func TestRankIsGroupLocalIndex(t *testing.T) {
	tr := MustNew(4, 3)
	for alpha := 1; alpha <= tr.N(); alpha++ {
		// Enumerate all prefixes of length alpha via nodes and check that the
		// rank enumerates each group 0..size-1 in order.
		seen := map[string][]int64{}
		for id := 0; id < tr.Nodes(); id++ {
			d := tr.NodeDigits(NodeID(id))
			key := string(appendDigits(nil, d[:alpha]))
			seen[key] = append(seen[key], tr.Rank(NodeID(id), alpha))
		}
		for key, ranks := range seen {
			if len(ranks) != tr.GCPGSize(alpha) {
				t.Fatalf("alpha=%d group %s has %d members, want %d",
					alpha, key, len(ranks), tr.GCPGSize(alpha))
			}
			for i, r := range ranks {
				if r != int64(i) {
					t.Fatalf("alpha=%d group %s rank[%d] = %d", alpha, key, i, r)
				}
			}
		}
	}
}

func TestPathCount(t *testing.T) {
	tr := MustNew(4, 3)
	a := mustNode(t, tr, 0, 0, 0)
	b := mustNode(t, tr, 1, 0, 0)            // alpha = 0
	if got := tr.PathCount(a, b); got != 4 { // h^(n-1) = 2^2
		t.Errorf("PathCount disjoint = %d, want 4", got)
	}
	c := mustNode(t, tr, 0, 1, 0) // alpha = 1
	if got := tr.PathCount(a, c); got != 2 {
		t.Errorf("PathCount alpha=1 = %d, want 2", got)
	}
	d := mustNode(t, tr, 0, 0, 1) // alpha = 2, same leaf
	if got := tr.PathCount(a, d); got != 1 {
		t.Errorf("PathCount same leaf = %d, want 1", got)
	}
	if got := tr.PathCount(a, a); got != 0 {
		t.Errorf("PathCount(a,a) = %d, want 0", got)
	}
}

func TestSwitchesWithPrefix(t *testing.T) {
	tr := MustNew(4, 3)
	// All roots.
	roots := tr.SwitchesWithPrefix(nil, 0)
	if len(roots) != 4 {
		t.Fatalf("roots = %d, want 4", len(roots))
	}
	// Level-2 switches with prefix "3": digit0 = 3 fixed, digit1 free in [0,2).
	leaves := tr.SwitchesWithPrefix([]int{3}, 2)
	if len(leaves) != 2 {
		t.Fatalf("prefix-3 leaves = %d, want 2", len(leaves))
	}
	for _, s := range leaves {
		d, lvl := tr.SwitchDigits(s)
		if lvl != 2 || d[0] != 3 {
			t.Errorf("bad switch %s", tr.SwitchLabel(s))
		}
	}
	// A prefix impossible at level 0 yields nothing.
	if got := tr.SwitchesWithPrefix([]int{3}, 0); len(got) != 0 {
		t.Errorf("impossible prefix produced %d switches", len(got))
	}
}
