package shard

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/units"
)

// buildPair returns a two-host topology joined through two switches and
// one wide-area link eligible for cutting:
//
//	a --- s1 ===WAN=== s2 --- b
func buildPair(t *testing.T, seed int64) (*netsim.Network, *netsim.Host, *netsim.Host) {
	t.Helper()
	n := netsim.NewIsolated(seed)
	a := n.NewHost("a")
	b := n.NewHost("b")
	s1 := n.NewDevice("s1", netsim.DeviceConfig{})
	s2 := n.NewDevice("s2", netsim.DeviceConfig{})
	n.Connect(a, s1, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(s2, b, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(s1, s2, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 5 * time.Millisecond})
	n.ComputeRoutes()
	return n, a, b
}

func TestPartitionPair(t *testing.T) {
	n, _, _ := buildPair(t, 1)
	plan, err := Partition(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Domains) != 2 {
		t.Fatalf("domains = %v, want 2", plan.Domains)
	}
	if len(plan.Cuts) != 1 {
		t.Fatalf("cuts = %d, want 1", len(plan.Cuts))
	}
	if plan.Lookahead != 5*time.Millisecond {
		t.Fatalf("lookahead = %v, want 5ms", plan.Lookahead)
	}
}

func TestEngineDeliversAcrossCut(t *testing.T) {
	for _, shards := range []int{1, 2} {
		n, a, b := buildPair(t, 1)
		got := 0
		b.Bind(netsim.ProtoTCP, 5001, netsim.HandlerFunc(func(pkt *netsim.Packet) {
			got++
		}))
		if _, err := Install(n, shards); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			pkt := n.NewPacket()
			pkt.Flow = netsim.FlowKey{Src: "a", Dst: "b", Proto: netsim.ProtoTCP, DstPort: 5001}
			pkt.Size = 1500
			a.Send(pkt)
		}
		n.RunFor(time.Second)
		if got != 10 {
			t.Fatalf("shards=%d: delivered %d packets, want 10", shards, got)
		}
		for _, err := range n.AuditInvariants() {
			t.Errorf("shards=%d: audit: %v", shards, err)
		}
	}
}

// wireLossPattern sends 200 numbered packets across buildPair's WAN,
// made lossy, under the given shard count and returns which of them
// arrived, as a string of 0/1 digits.
func wireLossPattern(t *testing.T, seed int64, shards int) string {
	t.Helper()
	n, a, b := buildPair(t, seed)
	n.LinkBetween("s1", "s2").Loss = netsim.RandomLoss{P: 0.3}
	arrived := make([]byte, 200)
	for i := range arrived {
		arrived[i] = '0'
	}
	b.Bind(netsim.ProtoUDP, 9, netsim.HandlerFunc(func(pkt *netsim.Packet) {
		arrived[pkt.Seq] = '1'
	}))
	if _, err := Install(n, shards); err != nil {
		t.Fatal(err)
	}
	for i := range arrived {
		pkt := n.NewPacket()
		pkt.Flow = netsim.FlowKey{Src: "a", Dst: "b", Proto: netsim.ProtoUDP, DstPort: 9}
		pkt.Size = 1500
		pkt.Seq = int64(i)
		a.Send(pkt)
	}
	n.RunFor(time.Second)
	for _, err := range n.AuditInvariants() {
		t.Errorf("seed %d shards=%d: audit: %v", seed, shards, err)
	}
	return string(arrived)
}

// TestShardedWireLossFollowsSeed: each port's wire-loss stream derives
// from the network seed, so two seeds drop different packets, while one
// seed drops the same packets at every shard count.
func TestShardedWireLossFollowsSeed(t *testing.T) {
	ref := wireLossPattern(t, 1, 1)
	if other := wireLossPattern(t, 2, 1); other == ref {
		t.Errorf("seeds 1 and 2 lost the same packets: %s", ref)
	}
	for _, shards := range []int{2, 4} {
		if got := wireLossPattern(t, 1, shards); got != ref {
			t.Errorf("shards=%d loses different packets than shards=1:\n%s\n%s", shards, got, ref)
		}
	}
}
