package experiment

import (
	"reflect"
	"testing"
)

// TestChaosStudyQuick runs the reduced chaos campaign and checks the
// acceptance properties: the runner's conservation assertion held (it errors
// otherwise), every rate produced a comparable SLID/MLID pair on the same
// schedule, and MLID — whose retransmissions re-select a fault-avoiding LID —
// retransmits strictly less than SLID at every rate.
func TestChaosStudyQuick(t *testing.T) {
	spec := QuickChaosSpec()
	rows, err := ChaosStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(spec.FaultRates) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(spec.FaultRates))
	}
	for i := 0; i < len(rows); i += 2 {
		slid, mlid := rows[i], rows[i+1]
		if slid.Scheme == mlid.Scheme || slid.FaultRate != mlid.FaultRate {
			t.Fatalf("rows %d/%d are not a scheme pair at one rate: %+v %+v", i, i+1, slid, mlid)
		}
		if slid.Scheme != "SLID" {
			slid, mlid = mlid, slid
		}
		if slid.Flaps != mlid.Flaps || slid.SwitchKills != mlid.SwitchKills {
			t.Errorf("rate %v: schemes ran different schedules", slid.FaultRate)
		}
		if slid.Delivered == 0 || mlid.Delivered == 0 {
			t.Errorf("rate %v: a scheme delivered nothing", slid.FaultRate)
		}
		if slid.Retransmits == 0 {
			t.Errorf("rate %v: SLID never retransmitted — the chaos schedule did not bite", slid.FaultRate)
		}
		if mlid.Retransmits >= slid.Retransmits {
			t.Errorf("rate %v: MLID retransmits %d, SLID %d: want strictly fewer under MLID",
				slid.FaultRate, mlid.Retransmits, slid.Retransmits)
		}
	}
}

// TestChaosSoakDeterminism is the CI soak: two seeds, each run twice per
// scheduler path (calendar, and heap-only set on every point's Config),
// every result diffed bit for bit.
func TestChaosSoakDeterminism(t *testing.T) {
	for _, seed := range []int64{99, 1234} {
		spec := QuickChaosSpec()
		spec.Seed = seed
		base, err := ChaosStudy(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again, err := ChaosStudy(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(base, again) {
			t.Fatalf("seed %d: chaos campaign is not reproducible", seed)
		}
		heap, err := runHeapOnly(chaosStudy(spec))
		if err != nil {
			t.Fatalf("seed %d (heap-only): %v", seed, err)
		}
		heap2, err := runHeapOnly(chaosStudy(spec))
		if err != nil {
			t.Fatalf("seed %d (heap-only): %v", seed, err)
		}
		if !reflect.DeepEqual(heap, heap2) {
			t.Fatalf("seed %d: heap-only campaign is not reproducible", seed)
		}
		if !reflect.DeepEqual(base, heap) {
			t.Fatalf("seed %d: calendar and heap-only scheduler paths disagree", seed)
		}
	}
}
