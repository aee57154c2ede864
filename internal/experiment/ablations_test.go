package experiment

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestRunAblationsQuick(t *testing.T) {
	rows, err := RunAblations(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 15 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	byKey := map[string]AblationRow{}
	for _, r := range rows {
		if r.AcceptedBns <= 0 || r.MeanLatencyNs <= 0 {
			t.Fatalf("empty row: %+v", r)
		}
		byKey[r.Experiment+"/"+r.Setting] = r
	}
	acc := func(key string) float64 { return byKey[key].AcceptedBns }
	lat := func(key string) float64 { return byKey[key].MeanLatencyNs }
	// EX-A: MLID leads SLID at every VL count, and MLID's gain flattens
	// after 4 VLs: the 4->8 gain is under half the 1->4 gain.
	for _, vls := range []int{1, 4, 8} {
		m, s := acc(fmt.Sprintf("EX-A vl-count/MLID %dVL", vls)), acc(fmt.Sprintf("EX-A vl-count/SLID %dVL", vls))
		if m <= s {
			t.Errorf("%d VLs: MLID %.4f not ahead of SLID %.4f", vls, m, s)
		}
	}
	m1, m4, m8 := acc("EX-A vl-count/MLID 1VL"), acc("EX-A vl-count/MLID 4VL"), acc("EX-A vl-count/MLID 8VL")
	if m8-m4 >= (m4-m1)/2 {
		t.Errorf("MLID VL gain did not flatten after 4 VLs: %.4f / %.4f / %.4f", m1, m4, m8)
	}
	// EX-B: a second packet of buffering raises accepted traffic; a fourth
	// adds nothing (within 2%).
	b1, b2, b4 := acc("EX-B buffers/MLID 1-pkt buffers"), acc("EX-B buffers/MLID 2-pkt buffers"), acc("EX-B buffers/MLID 4-pkt buffers")
	if b2 <= b1 {
		t.Errorf("2-packet buffers %.4f not above 1-packet %.4f", b2, b1)
	}
	if r := b4 / b2; r < 0.98 || r > 1.02 {
		t.Errorf("4-packet buffers %.4f vs 2-packet %.4f: expected flat", b4, b2)
	}
	// EX-C: mean latency rises with packet size while accepted traffic
	// stays at the offered 0.30.
	prev := 0.0
	for _, size := range []int{64, 256, 1024} {
		key := fmt.Sprintf("EX-C pktsize/MLID %dB packets", size)
		if lat(key) <= prev {
			t.Errorf("%dB packets: latency %.0f ns not above the smaller size's %.0f ns", size, lat(key), prev)
		}
		prev = lat(key)
		if a := acc(key); math.Abs(a-0.3) > 0.005 {
			t.Errorf("%dB packets: accepted %.4f, want the offered 0.30", size, a)
		}
	}
	// EX-F: ideal reception separates the schemes; link-limited converges.
	mi := byKey["EX-F reception/MLID ideal"].AcceptedBns
	si := byKey["EX-F reception/SLID ideal"].AcceptedBns
	ml := byKey["EX-F reception/MLID link-limited"].AcceptedBns
	sl := byKey["EX-F reception/SLID link-limited"].AcceptedBns
	if mi < 1.5*si {
		t.Errorf("ideal reception: MLID %.4f not >> SLID %.4f", mi, si)
	}
	if r := ml / sl; r < 0.9 || r > 1.1 {
		t.Errorf("link-limited ratio %.2f, expected ~1", r)
	}
	// EX-G: rank selection beats random on the permutation.
	if byKey["EX-G pathselect/MLID rank (paper)"].AcceptedBns <=
		byKey["EX-G pathselect/MLID random offset"].AcceptedBns {
		t.Error("random offsets beat rank selection on bit-complement")
	}
	// EX-H: pinning VLs by DLID isolates SLID's hotspot on one lane, so SLID
	// gains over half its throughput and its latency drops below MLID's,
	// but MLID keeps the throughput lead.
	srr, spin := acc("EX-H vlmap/SLID round-robin (default)"), acc("EX-H vlmap/SLID DLID-pinned")
	if spin < 1.5*srr {
		t.Errorf("DLID pinning: SLID %.4f -> %.4f, expected a gain over 50%%", srr, spin)
	}
	if mpin := acc("EX-H vlmap/MLID DLID-pinned"); mpin <= spin {
		t.Errorf("DLID pinning: MLID %.4f lost the throughput lead to SLID %.4f", mpin, spin)
	}
	if lat("EX-H vlmap/SLID DLID-pinned") >= lat("EX-H vlmap/MLID DLID-pinned") {
		t.Error("DLID pinning: SLID latency not below MLID's")
	}
	// Switching: store-and-forward is slower at equal accepted load.
	if byKey["switching/MLID store-and-forward"].MeanLatencyNs <=
		byKey["switching/MLID cut-through (paper)"].MeanLatencyNs {
		t.Error("SAF not slower than VCT")
	}
	// Rendering.
	table := AblationTable(rows)
	if !strings.Contains(table, "EX-A vl-count") || !strings.Contains(table, "| experiment |") {
		t.Errorf("table:\n%s", table)
	}
}
