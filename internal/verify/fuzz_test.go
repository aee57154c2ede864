package verify_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
	"mlid/internal/verify"
)

// FuzzRunFindings runs verify.Run over fuzzed forwarding-table corruptions
// (entries rewritten to another port, to no port or to a port past the
// radix), dead links and traffic matrices (nil for all-to-all, or a few
// flows with weights from zero to math.MaxFloat64) on FT(4,2) and FT(4,3),
// under both schemes, with one shared dependency graph and with one per
// lane. Run must not panic and may reject only a matrix whose load sums
// overflow, Errors and Warnings must count the rendered findings by
// severity, and every WriteJSON line must parse as JSON. Run it longer by
// hand with
// `go test -run xxx -fuzz FuzzRunFindings -fuzztime 5m ./internal/verify/`.
func FuzzRunFindings(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		shape := [][2]int{{4, 2}, {4, 3}}[rng.Intn(2)]
		for _, eng := range []ib.RoutingEngine{core.NewMLID(), core.NewSLID()} {
			sn := configured(t, shape[0], shape[1], eng)
			tr := sn.Tree
			for k := rng.Intn(12); k > 0; k-- {
				lft := sn.LFTs[rng.Intn(tr.Switches())]
				phys := uint8(1 + rng.Intn(tr.M()+1))
				if rng.Intn(4) == 0 {
					phys = ib.PortNone
				}
				if err := lft.Set(ib.LID(1+rng.Intn(lft.Size()-1)), phys); err != nil {
					t.Fatal(err)
				}
			}
			in := verify.FromSubnet(sn)
			for k := rng.Intn(4); k > 0; k-- {
				in.DeadLinks = append(in.DeadLinks, [2]int32{rng.Int31n(int32(tr.Switches())), rng.Int31n(int32(tr.M()))})
			}
			var flows []traffic.Flow
			if rng.Intn(3) > 0 {
				flows = []traffic.Flow{}
				for k := rng.Intn(5); k > 0; k-- {
					flows = append(flows, traffic.Flow{
						Src:    topology.NodeID(rng.Intn(tr.Nodes())),
						Dst:    topology.NodeID(rng.Intn(tr.Nodes())),
						Weight: []float64{0, 1, rng.Float64() * 1e6, 1e307, math.MaxFloat64}[rng.Intn(5)],
					})
				}
			}
			for _, vlOf := range []func(ib.LID, int) int{nil, vlByDLID} {
				opt := verify.Options{VLs: 1 + rng.Intn(3), VLOf: vlOf, MaxFindings: []int{0, 3, -1}[rng.Intn(3)], Flows: flows}
				rep, err := verify.Run(in, opt)
				if err != nil && strings.Contains(err.Error(), "overflow") {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				bySeverity := map[verify.Severity]int{}
				for _, fd := range rep.Findings() {
					bySeverity[fd.Severity]++
				}
				if rep.Errors() != bySeverity[verify.Error] || rep.Warnings() != bySeverity[verify.Warning] {
					t.Fatalf("%s, per-lane graphs %v: Errors %d, Warnings %d; rendered findings: %d errors, %d warnings",
						eng.Name(), vlOf != nil, rep.Errors(), rep.Warnings(), bySeverity[verify.Error], bySeverity[verify.Warning])
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
					if !json.Valid(line) {
						t.Fatalf("WriteJSON line is not JSON: %s", line)
					}
				}
				rep.WriteHuman(io.Discard)
			}
		}
	})
}
