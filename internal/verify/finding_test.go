package verify

import "testing"

// TestFindingWithoutSeverityPanics pins the Severity contract: the zero
// value is not a grade, and every place a finding is recorded rejects it.
func TestFindingWithoutSeverityPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record func(Finding)
	}{
		{"fabric.add", func(f Finding) { (&fabric{}).add(&Report{}, f) }},
		{"walker.add", func(f Finding) { (&walker{f: &fabric{}}).add(f) }},
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
