package verify

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// Severity grades a finding. Error findings are violations of properties the
// schemes guarantee (a loop, a credit cycle, an unexplained dead end);
// Warning findings are conditions a recorded fault explains (an entry left
// pointing at a down link drops packets observably, it does not misroute
// them); Info findings carry metrics with no pass/fail meaning. Each
// finding kind has one fixed severity.
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
// findings). Report.Findings renders them; the type's fields, JSON tags
// and String are the format ibverify prints.
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
		s += " [witness: " + strings.Join(f.Witness, " -> ") + "]"
	}
	return s
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

// Report collects every analyzer's findings plus run statistics. Run
// records each finding as a typed record — its kind and the switch,
// channel, LID, node and count values it names — and Findings renders the
// text only when the report is read.
type Report struct {
	Stats Stats `json:"stats"`
	t     *topology.Tree
	eng   ib.RoutingEngine
	recs  []record
	// chans holds every record's witness channels (sw*m+port); a record's
	// witness is the sub-slice chans[from:to].
	chans []int32
}

// analyzer indexes the four analyzer families.
type analyzer uint8

const (
	reachability analyzer = iota
	deadlock
	addressing
	quality
	numAnalyzers
)

var analyzerNames = [numAnalyzers]string{"reachability", "deadlock", "addressing", "quality"}

// kind is what a finding reports; kinds gives each kind's analyzer and
// severity.
type kind uint8

const (
	kindLoop kind = iota
	kindOverlong
	kindDeadEnd
	kindBadPort
	kindDownLink
	kindFallOff
	kindMisdelivery
	kindUnreachable
	kindCycle
	kindLMC
	kindLIDSpace
	kindBaseZero
	kindBeyondTable
	kindOverlap
	kindOrphan
	kindQuality
	numKinds
)

var kinds = [numKinds]struct {
	analyzer analyzer
	severity Severity
}{
	kindLoop:        {reachability, Error},
	kindOverlong:    {reachability, Error},
	kindDeadEnd:     {reachability, Error},
	kindBadPort:     {reachability, Error},
	kindDownLink:    {reachability, Warning},
	kindFallOff:     {reachability, Error},
	kindMisdelivery: {reachability, Error},
	kindUnreachable: {reachability, Warning},
	kindCycle:       {deadlock, Error},
	kindLMC:         {addressing, Error},
	kindLIDSpace:    {addressing, Error},
	kindBaseZero:    {addressing, Error},
	kindBeyondTable: {addressing, Error},
	kindOverlap:     {addressing, Error},
	kindOrphan:      {addressing, Warning},
	kindQuality:     {quality, Info},
}

// record is one finding as a Run collects it. Each kind reads the fields
// render names for it.
type record struct {
	kind  kind
	lid   int32
	sw    topology.SwitchID // the switch the finding anchors to
	ch    int32             // the channel (sw*m+port) it anchors to
	node  topology.NodeID
	other topology.NodeID // the node a misdelivery reaches, or a LID's earlier owner
	// n is the kind's count or value: a switch bound, a port, a route
	// count, an LMC, a LID space, a lane (-1: every lane) or the index of
	// the Stats.Quality block.
	n int
	// ranges are the LID ranges an addressing witness prints: the node's,
	// then the earlier owner's.
	ranges   [2]ib.LIDRange
	from, to int32 // the witness: Report.chans[from:to]
}

// render builds record rc's Finding.
func (r *Report) render(rc record) Finding {
	t := r.t
	k := kinds[rc.kind]
	f := Finding{Analyzer: analyzerNames[k.analyzer], Severity: k.severity}
	for _, c := range r.chans[rc.from:rc.to] {
		f.Witness = append(f.Witness, chanLabel(t, c))
	}
	switch rc.kind {
	case kindLoop:
		f.Location = t.SwitchLabel(rc.sw)
		f.Message = fmt.Sprintf("forwarding loop for DLID %d (%d switches)", rc.lid, len(f.Witness))
	case kindOverlong:
		f.Location = t.SwitchLabel(rc.sw)
		f.Message = fmt.Sprintf("route for DLID %d exceeds %d switches without delivery", rc.lid, rc.n)
	case kindDeadEnd:
		f.Location = t.SwitchLabel(rc.sw)
		f.Message = fmt.Sprintf("dead end: no forwarding entry for assigned DLID %d", rc.lid)
	case kindBadPort:
		f.Location = t.SwitchLabel(rc.sw)
		f.Message = fmt.Sprintf("DLID %d routed to invalid physical port %d", rc.lid, rc.n)
	case kindDownLink:
		f.Location = chanLabel(t, rc.ch)
		f.Message = fmt.Sprintf("entry for DLID %d points at a down link (packets drop here)", rc.lid)
	case kindFallOff:
		f.Location = chanLabel(t, rc.ch)
		f.Message = fmt.Sprintf("route for DLID %d falls off the fabric (unwired port)", rc.lid)
	case kindMisdelivery:
		f.Location = chanLabel(t, rc.ch)
		f.Message = fmt.Sprintf("misdelivery: DLID %d owned by %s delivered to %s",
			rc.lid, t.NodeLabel(rc.node), t.NodeLabel(rc.other))
	case kindUnreachable:
		f.Location = t.SwitchLabel(rc.sw)
		f.Message = fmt.Sprintf("destination %s unreachable: all %d of its LIDs hit dead links from this leaf",
			t.NodeLabel(rc.node), rc.n)
	case kindCycle:
		f.Location = f.Witness[0]
		lane := "every VL (no VL transitions)"
		if rc.n >= 0 {
			lane = fmt.Sprintf("VL %d", rc.n)
		}
		f.Message = fmt.Sprintf("channel-dependency cycle of %d links on %s: credit deadlock possible", len(f.Witness), lane)
	case kindLMC:
		f.Location = t.String()
		f.Message = fmt.Sprintf("scheme %s requires LMC %d > architectural maximum %d", r.eng.Name(), rc.n, ib.MaxLMC)
		f.Witness = []string{fmt.Sprintf("LMC field is 3 bits, max %d", ib.MaxLMC)}
	case kindLIDSpace:
		f.Location = t.String()
		f.Message = fmt.Sprintf("LID-space exhaustion: scheme %s needs %d LIDs, %d past the 16-bit space",
			r.eng.Name(), rc.n, rc.n-lidSpaceLimit)
		f.Witness = []string{fmt.Sprintf("LIDSpace=%d", rc.n), fmt.Sprintf("16-bit limit=%d", lidSpaceLimit)}
	case kindBaseZero:
		f.Location = t.NodeLabel(rc.node)
		f.Message = "assigned the reserved base LID 0"
	case kindBeyondTable:
		f.Location = t.NodeLabel(rc.node)
		f.Message = fmt.Sprintf("LID %d beyond the forwarding-table size %d (LMC block overflows the table)", rc.lid, rc.n)
		f.Witness = []string{rc.ranges[0].String()}
	case kindOverlap:
		f.Location = t.NodeLabel(rc.node)
		f.Message = fmt.Sprintf("LID %d already owned by %s (LMC blocks overlap)", rc.lid, t.NodeLabel(rc.other))
		f.Witness = []string{
			fmt.Sprintf("%s owns %s", t.NodeLabel(rc.other), rc.ranges[1]),
			fmt.Sprintf("%s owns %s", f.Location, rc.ranges[0]),
		}
	case kindOrphan:
		f.Location = t.SwitchLabel(rc.sw)
		f.Message = fmt.Sprintf("orphaned LID %d routed on %d switches but owned by no endport", rc.lid, rc.n)
	case kindQuality:
		q := r.Stats.Quality[rc.n]
		f.Location = t.String()
		f.Message = fmt.Sprintf("%s: max inter-switch load %.1f at %s (mean %.1f), dilation mean %.3f, root links max/mean/min %.1f/%.1f/%.1f, %d/%d flows unrouted",
			q.Matrix, q.MaxLoad, q.MaxLink, q.MeanLoad, q.MeanDilation, q.RootLinkMax, q.RootLinkMean, q.RootLinkMin, q.Unrouted, q.Flows)
	}
	return f
}

// chanLabel names channel c (sw*m+port), a directed link, by its
// transmitting switch endpoint.
func chanLabel(t *topology.Tree, c int32) string {
	m := int32(t.M())
	var buf [64]byte
	b := append(t.AppendSwitchLabel(buf[:0], topology.SwitchID(c/m)), ':')
	return string(strconv.AppendInt(b, int64(c%m), 10))
}

// Findings renders every finding, in the order the analyzers found them:
// addressing, reachability, deadlock, then quality. Nil when there are none.
func (r *Report) Findings() []Finding {
	if len(r.recs) == 0 {
		return nil
	}
	out := make([]Finding, len(r.recs))
	for i, rc := range r.recs {
		out[i] = r.render(rc)
	}
	return out
}

// FirstError renders the first error-severity finding, if there is one.
func (r *Report) FirstError() (Finding, bool) {
	for _, rc := range r.recs {
		if kinds[rc.kind].severity == Error {
			return r.render(rc), true
		}
	}
	return Finding{}, false
}

// Errors counts error-severity findings.
func (r *Report) Errors() int { return r.count(Error) }

// Warnings counts warning-severity findings.
func (r *Report) Warnings() int { return r.count(Warning) }

func (r *Report) count(s Severity) int {
	n := 0
	for _, rc := range r.recs {
		if kinds[rc.kind].severity == s {
			n++
		}
	}
	return n
}

// WriteHuman renders the report for terminals: findings first (errors,
// warnings, then infos, each in discovery order), then a one-line summary
// and the quality metric blocks.
func (r *Report) WriteHuman(w io.Writer) {
	findings := r.Findings()
	for _, sev := range []Severity{Error, Warning, Info} {
		for _, f := range findings {
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
	for _, f := range r.Findings() {
		if err := enc.Encode(f); err != nil {
			return err
		}
	}
	return enc.Encode(struct {
		Stats Stats `json:"stats"`
	}{r.Stats})
}
