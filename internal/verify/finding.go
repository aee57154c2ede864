package verify

import (
	"encoding/json"
	"fmt"
	"io"
)

// Severity grades a finding. Error findings are violations of properties the
// schemes guarantee (a loop, a credit cycle, an unexplained dead end);
// Warning findings are conditions a recorded fault explains (an entry left
// pointing at a down link drops packets observably, it does not misroute
// them); Info findings carry metrics with no pass/fail meaning. The zero
// Severity is none of these: a finding recorded without one panics, so an
// omitted grade fails the first test that reaches it.
type Severity int

const (
	Info Severity = iota + 1
	Warning
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the lowercase names String produces.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = Info
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("verify: unknown severity %q", name)
	}
	return nil
}

// Finding is one typed result of a static analyzer: what was found, how bad
// it is, where in the fabric it sits, and the witness that proves it (a
// forwarding path for reachability findings, a channel cycle for deadlock
// findings). Every construction must set Severity: the zero value is
// invalid and rejected where the finding is recorded.
type Finding struct {
	// Analyzer names the family that produced the finding: "reachability",
	// "deadlock", "addressing" or "quality".
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	// Location names the fabric element the finding anchors to, using the
	// topology's labels (e.g. "SW2,3:1" or "P1,0,2").
	Location string `json:"location"`
	Message  string `json:"message"`
	// Witness is the evidence trail: the hops of a broken route, the
	// channels of a dependency cycle, the owners of a duplicated LID. Nil
	// when the message is self-contained.
	Witness []string `json:"witness,omitempty"`
}

// String renders one finding in the human format WriteHuman uses.
func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s: %s: %s", f.Severity, f.Analyzer, f.Location, f.Message)
	if len(f.Witness) > 0 {
		s += fmt.Sprintf(" [witness: %s]", joinWitness(f.Witness))
	}
	return s
}

func joinWitness(w []string) string {
	out := ""
	for i, h := range w {
		if i > 0 {
			out += " -> "
		}
		out += h
	}
	return out
}

// QualityReport is the quality analyzer's metric block for one traffic
// matrix: the static congestion and path-stretch measures the paper's
// evaluation ranks routings by.
type QualityReport struct {
	// Matrix names the traffic matrix the metrics trace: "all-to-all" by
	// default, "flows" when Options.Flows gives the matrix.
	Matrix string `json:"matrix"`
	// Flows is the number of traced (src, dst) flows, self-flows excluded;
	// Unrouted counts the flows whose selected route did not reach the
	// destination (they carry no load).
	Flows    int `json:"flows"`
	Unrouted int `json:"unrouted"`
	// MaxLoad is the heaviest directed inter-switch link's accumulated
	// weight — the static congestion bound (throughput <= demand / MaxLoad
	// for unit-capacity links); MaxLink names the link attaining it with the
	// lowest channel id (switch id * m + port).
	MaxLoad  float64 `json:"max_load"`
	MaxLink  string  `json:"max_link"`
	MeanLoad float64 `json:"mean_load"`
	// MeanDilation / MaxDilation compare each routed flow's switch count to
	// the minimal up*/down* path for the pair (1.0 = every flow shortest).
	MeanDilation float64 `json:"mean_dilation"`
	MaxDilation  float64 `json:"max_dilation"`
	// RootLinkMax / RootLinkMin / RootLinkMean summarize the load on the
	// root switches' descending links — the spread the MLID scheme's
	// root-per-LID assignment is designed to keep flat.
	RootLinkMax  float64 `json:"root_link_max"`
	RootLinkMin  float64 `json:"root_link_min"`
	RootLinkMean float64 `json:"root_link_mean"`
}

// Stats summarizes what a Run proved and how much work it did.
type Stats struct {
	// RoutesChecked counts the (leaf switch, assigned LID) routes the
	// reachability analyzer walked.
	RoutesChecked int `json:"routes_checked"`
	// VLs is the virtual-lane count the deadlock analyzer proved freedom
	// for; Channels / Dependencies size the largest per-VL graph.
	VLs          int `json:"vls"`
	Channels     int `json:"channels"`
	Dependencies int `json:"dependencies"`
	// Suppressed counts findings dropped by the per-analyzer cap.
	Suppressed int `json:"suppressed"`
	// Quality carries the traced matrix's metric block (empty when the
	// quality analyzer was skipped).
	Quality []QualityReport `json:"quality,omitempty"`
}

// Report collects every analyzer's findings plus run statistics.
type Report struct {
	Findings []Finding `json:"findings"`
	Stats    Stats     `json:"stats"`
}

// valid returns f, panicking when its Severity is not a grade.
func (f Finding) valid() Finding {
	if f.Severity < Info || f.Severity > Error {
		panic(fmt.Sprintf("verify: %s finding %q recorded with invalid severity %d", f.Analyzer, f.Message, int(f.Severity)))
	}
	return f
}

// Errors counts error-severity findings.
func (r *Report) Errors() int { return r.count(Error) }

// Warnings counts warning-severity findings.
func (r *Report) Warnings() int { return r.count(Warning) }

func (r *Report) count(s Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == s {
			n++
		}
	}
	return n
}

// WriteHuman renders the report for terminals: findings first (errors,
// warnings, then infos, each in discovery order), then a one-line summary
// and the quality metric blocks.
func (r *Report) WriteHuman(w io.Writer) {
	for _, sev := range []Severity{Error, Warning, Info} {
		for _, f := range r.Findings {
			if f.Severity == sev {
				fmt.Fprintln(w, f.String())
			}
		}
	}
	fmt.Fprintf(w, "verified %d routes, %d VLs (%d channels, %d dependencies): %d errors, %d warnings",
		r.Stats.RoutesChecked, r.Stats.VLs, r.Stats.Channels, r.Stats.Dependencies, r.Errors(), r.Warnings())
	if r.Stats.Suppressed > 0 {
		fmt.Fprintf(w, " (%d findings suppressed)", r.Stats.Suppressed)
	}
	fmt.Fprintln(w)
	for _, q := range r.Stats.Quality {
		fmt.Fprintf(w, "quality[%s]: flows %d (unrouted %d), max load %.2f at %s, mean %.2f, dilation mean %.3f max %.2f, root links max/mean/min %.2f/%.2f/%.2f\n",
			q.Matrix, q.Flows, q.Unrouted, q.MaxLoad, q.MaxLink, q.MeanLoad,
			q.MeanDilation, q.MaxDilation, q.RootLinkMax, q.RootLinkMean, q.RootLinkMin)
	}
}

// WriteJSON renders findings as JSON lines (one object per finding, the
// shape cmd/ibverify -json emits and the CI problem matcher parses),
// followed by one {"stats": ...} trailer object.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, f := range r.Findings {
		if err := enc.Encode(f); err != nil {
			return err
		}
	}
	return enc.Encode(struct {
		Stats Stats `json:"stats"`
	}{r.Stats})
}
