package main

import (
	"fmt"
	"time"

	"fabricgossip/internal/harness"
	"fabricgossip/internal/scenario"
	"fabricgossip/internal/workload"
)

// benchWorkload is one named input of the benchmark: a scenario script and
// run options, both derived from the seed alone.
type benchWorkload struct {
	name  string
	build func(seed int64) (scenario.Scenario, scenario.Options, error)
}

var workloads = []benchWorkload{
	{name: "crash-10x1000", build: buildCrash},
	{name: "disseminate-orig-1x5000", build: buildDisseminate},
	{name: "txload-raft-4x50", build: buildTxload},
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// buildCrash is the catalog's sharded crash-restart script at the 10k tier:
// 10 WAN-separated orgs of 1000 peers on the sharded engine, a tenth of the
// network crashed at 1.5 s and restarted at 4 s.
func buildCrash(seed int64) (scenario.Scenario, scenario.Options, error) {
	def, err := scenario.Lookup("sharded-crash-restart")
	if err != nil {
		return scenario.Scenario{}, scenario.Options{}, err
	}
	sc := def.Build(scenario.Uniform(10, 1000))
	sc.Name = def.Name
	return sc, scenario.Options{Peers: 10000, Orgs: 10, Variant: harness.VariantEnhanced, Seed: seed}, nil
}

// buildDisseminate is the paper's fault-free dissemination experiment on
// one organization running the original protocol: 40 blocks every 250 ms
// after a 1 s warmup, then a 10 s tail.
func buildDisseminate(seed int64) (scenario.Scenario, scenario.Options, error) {
	sc := scenario.Scenario{
		Name:          "disseminate-orig-1x5000",
		Blocks:        40,
		BlockInterval: 250 * time.Millisecond,
		Warmup:        time.Second,
		Tail:          10 * time.Second,
	}
	return sc, scenario.Options{Peers: 5000, Orgs: 1, Variant: harness.VariantOriginal, Seed: seed}, nil
}

// buildTxload is the execute-order-validate workload: 4 orgs of 50 peers,
// a 3-node Raft ordering cluster, and 4 open-loop Poisson clients per org
// at 10 tx/s each for 30 simulated seconds over 1024 Zipf(1.2) keys.
func buildTxload(seed int64) (scenario.Scenario, scenario.Options, error) {
	sc := scenario.Scenario{
		Name:       "txload-raft-4x50",
		Warmup:     time.Second,
		Tail:       10 * time.Second,
		Consenters: 3,
		Workload: &workload.Config{
			ClientsPerOrg: 4,
			Rate:          10,
			Arrival:       workload.ArrivalPoisson,
			Keys:          1024,
			ZipfS:         1.2,
			RetryMax:      1,
		},
		Events: []scenario.Event{
			{At: time.Second, Action: scenario.StartWorkload{}},
			{At: 31 * time.Second, Action: scenario.StopWorkload{}},
		},
	}
	return sc, scenario.Options{Peers: 200, Orgs: 4, Variant: harness.VariantEnhanced, Seed: seed}, nil
}

// setupProbe turns a workload's script into the set-up probe: the same
// topology and network options with nothing scripted, so a run of it is
// almost entirely network construction. The runner requires at least one
// block on the premade-chain plane; it is injected at time zero.
func setupProbe(sc scenario.Scenario) scenario.Scenario {
	sc.Events = nil
	sc.InitialDown = nil
	sc.Warmup = 0
	sc.Tail = 0
	if sc.Workload == nil {
		sc.Blocks = 1
	}
	return sc
}
