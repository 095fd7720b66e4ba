package noc_test

import (
	"strings"
	"testing"

	"nocsprint/internal/check"
	"nocsprint/internal/noc"
	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
)

// TestCheckerReportsCreditLeaks corrupts the credits of an idle network, as
// TestCheckInvariantsCatchesCorruption does, with a checker attached: the
// next cycle's sweep must report the leak as a Structural violation naming
// it, with a snapshot. The same holds for a VC holding a flit with no
// packet, and the snapshot must render that slot rather than panic.
func TestCheckerReportsCreditLeaks(t *testing.T) {
	for _, c := range []struct {
		name, want string
		corrupt    func(*noc.Network)
		// snapshot is text the violation's snapshot must contain.
		snapshot string
	}{
		{"lose a link credit", "credit leak on link 0->1 vc 2", func(n *noc.Network) {
			n.LoseLinkCredit(0, topo.East, 2)
		}, "router"},
		{"mint an NI credit", "NI credit leak at node 5 vc 1", func(n *noc.Network) { n.MintNICredit(5, 1) }, "router"},
		{"strand a flit with no packet", "router 5 port 0 vc 3 in state 3 holds flits 0..0 outside its packet",
			func(n *noc.Network) { n.StrandFlit(5, 0, 3) },
			"in[Local][vc3]: 1 flits, state 3 -> out Local vc 0 head=no packet"},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, err := noc.New(noc.DefaultConfig(), routing.NewDOR(topo.NewMesh(4, 4)), nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []*check.Violation
			net.SetProbe(check.New(check.Config{
				Interval:    1,
				OnViolation: func(v *check.Violation) { got = append(got, v) },
			}))
			net.Step()
			if len(got) != 0 {
				t.Fatalf("clean network reported %v", got[0])
			}
			c.corrupt(net)
			net.Step()
			if len(got) != 1 {
				t.Fatalf("got %d violations, want 1", len(got))
			}
			v := got[0]
			if v.Kind != check.Structural || !strings.Contains(v.Detail, c.want) {
				t.Fatalf("violation %s %q, want %s naming %q", v.Kind, v.Detail, check.Structural, c.want)
			}
			if v.Cycle != 1 || !strings.Contains(v.Snapshot, c.snapshot) {
				t.Fatalf("violation at cycle %d with snapshot %q, want cycle 1 and %q", v.Cycle, v.Snapshot, c.snapshot)
			}
		})
	}
}
