package timing_test

import (
	"fmt"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/deliver"
	"cst/internal/padr"
	"cst/internal/timing"
	"cst/internal/topology"
)

// Price a run in clock cycles, including reconfiguration stalls.
func ExampleMakespan() {
	set, _ := comm.NestedChain(16, 2)
	tree := topology.MustNew(16)
	var rec deliver.Recorder
	engine, _ := padr.New(tree, set, padr.WithObserver(rec.Observer()))
	if _, err := engine.Run(); err != nil {
		fmt.Println(err)
		return
	}
	rounds := make([]circuit.RoundConfig, rec.Rounds())
	for i := range rounds {
		rounds[i] = rec.Config(i)
	}
	// One cycle per level, a 4-cycle reconfiguration stall, one transfer
	// cycle.
	p := timing.Params{WaveCyclePerLevel: 1, ReconfigCycles: 4, TransferCycles: 1}
	b := timing.Makespan(tree, rounds, p)
	fmt.Println(b)
	// Output:
	// 22 cycles (wave 12, reconfig 8, transfer 2; 2/2 rounds stalled)
}
