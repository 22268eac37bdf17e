package workload

import (
	"strings"
	"testing"
	"time"

	"fabricgossip/internal/harness"
)

func TestConfigValidate(t *testing.T) {
	bad := []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown arrival", Config{Arrival: "bursty"}, "unknown arrival"},
		{"negative rate", Config{Rate: -1}, "rate must be positive"},
		{"zipf below one", Config{ZipfS: 0.5}, "ZipfS"},
		{"zipf of one", Config{ZipfS: 1}, "ZipfS"},
		{"aggregated closed loop", Config{Arrival: ArrivalClosed, AggregateClients: true}, "cannot be aggregated"},
	}
	for _, c := range bad {
		err := c.cfg.withDefaults().validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	good := []Config{
		{},
		{Arrival: ArrivalPoisson, ZipfS: 1.2},
		{Arrival: ArrivalClosed},
		{Arrival: ArrivalPoisson, AggregateClients: true},
	}
	for _, cfg := range good {
		if err := cfg.withDefaults().validate(); err != nil {
			t.Errorf("%+v: validate = %v", cfg, err)
		}
	}
}

func TestInstallRejectsInvalidConfig(t *testing.T) {
	n, err := harness.NewNetwork(harness.NetworkParams{Seed: 1, Orgs: []harness.OrgSpec{{Peers: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Install(n, Config{Rate: -1}); err == nil {
		t.Fatal("Install accepted a negative rate")
	}
}

// Every submitted transaction is ordered once and resolves as exactly one
// commit or one conflict, on both forms of the simulation coordinator. Cut
// blocks reach the resolvers through recordBlock's barrier-hosted fan-out
// (syncBlockTxs), which the one-engine form runs at once.
func TestInstallAccountingClosesOnBothForms(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		n, err := harness.NewNetwork(harness.NetworkParams{
			Seed:    7,
			Orgs:    []harness.OrgSpec{{Peers: 6}, {Peers: 6}},
			Sharded: sharded,
		})
		if err != nil {
			t.Fatal(err)
		}
		plane, err := Install(n, Config{ClientsPerOrg: 2, Rate: 8, Keys: 16, ZipfS: 1.2})
		if err != nil {
			t.Fatal(err)
		}
		n.StartAll()
		n.Engine.At(time.Second, plane.Start)
		n.Engine.At(6*time.Second, plane.Stop)
		n.RunUntil(20 * time.Second)
		n.StopAll()

		st := plane.Stats()
		if st.Submitted == 0 || st.Committed == 0 || st.BlocksCut == 0 {
			t.Fatalf("sharded=%v: no load flowed: %+v", sharded, st)
		}
		if st.Submitted != st.Committed+st.Conflicts {
			t.Errorf("sharded=%v: %d submitted, %d committed + %d conflicts",
				sharded, st.Submitted, st.Committed, st.Conflicts)
		}
		if st.OrderedTx != uint64(st.Submitted) {
			t.Errorf("sharded=%v: orderer saw %d txs, clients submitted %d", sharded, st.OrderedTx, st.Submitted)
		}
		for _, os := range st.Orgs {
			if os.Submitted == 0 || os.Committed == 0 {
				t.Errorf("sharded=%v: org %d carried no load: %+v", sharded, os.Org, os)
			}
		}
	}
}
