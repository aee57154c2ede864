package experiment

import (
	"reflect"
	"strings"
	"testing"
)

// TestSMStudyQuick runs the reduced in-band SM study end to end — which
// includes SMStudy's own invariant enforcement (conservation, one sticky
// failover, sweep detections, lost traps) — and checks the row shape.
func TestSMStudyQuick(t *testing.T) {
	spec := QuickSMSpec()
	rows, err := SMStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 3 * (1 + len(spec.TrapLossProbs)) // schemes x (oracle + per-prob in-band)
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	for _, r := range rows {
		if r.Mode == "oracle" {
			continue
		}
		if r.UnreachableDegraded == 0 {
			t.Errorf("%s/%s p=%v: severed master leaf degraded no packets", r.Scheme, r.Mode, r.TrapLossProb)
		}
		if len(r.Series) == 0 {
			t.Errorf("%s/%s p=%v: no recovery-tail series", r.Scheme, r.Mode, r.TrapLossProb)
		}
	}
	if !strings.Contains(FormatSM(rows), "| SLID | oracle |") {
		t.Error("FormatSM lost the oracle row")
	}
	if got := strings.Count(SMCSV(rows), "\n"); got != wantRows+1 {
		t.Errorf("SMCSV has %d lines, want %d", got, wantRows+1)
	}
	if !strings.HasPrefix(SMSeriesCSV(rows), "scheme,mode,trap_loss_prob,start_ns,") {
		t.Error("SMSeriesCSV header changed")
	}
}

// TestSMStudyDeterministic reruns the quick study and requires identical
// rows: the campaign pool's scheduling must not leak into the results.
func TestSMStudyDeterministic(t *testing.T) {
	spec := QuickSMSpec()
	a, err := SMStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SMStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sm study rows differ between identical runs")
	}
}
