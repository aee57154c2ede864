package verify

import "testing"

// TestFindingWithoutSeverityPanics pins the Severity contract: the zero
// value is not a grade, and every place a finding is recorded rejects it.
func TestFindingWithoutSeverityPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record func(Finding)
	}{
		{"Report.add", func(f Finding) { (&Report{}).add(0, f) }},
		{"walker.add", func(f Finding) { (&walker{rep: &Report{}}).add(f) }},
		{"Finding.valid", func(f Finding) { f.valid() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a finding without a Severity", tc.name)
				}
			}()
			tc.record(Finding{Analyzer: "addressing", Message: "ungraded"})
		}()
	}
}
